//! The two measurements: the untraced end-to-end pass loop and the traced
//! per-layer loop.
//!
//! A *pass* runs every instance of the workload once. Passes repeat until
//! `--seconds` have elapsed; host-time metrics are medians over passes,
//! and because every pass simulates the same seeded inputs, every exact
//! counter and every pair's fate must come out identical in each of them —
//! that is the determinism check, and it costs nothing extra.

use std::time::Instant;

use dcrd_experiments::scenario::Scenario;
use dcrd_pubsub::{AuditConfig, InvariantAuditor, Trace};

use crate::catalog;
use crate::hold::{hold, increment_mix};
use crate::host;
use crate::instance::{run_instance, Exact, Keep, PhaseNs, Span};
use crate::stats::{median, percentile_sorted, SpanStats};
use crate::timed::Callback;
use crate::workloads::Workload;

/// A pass whose process got less CPU than this share of its wall time was
/// starved by the shared host; its timings are not the program's.
const MIN_CPU_SHARE: f64 = 0.9;
/// Starved passes are dropped only while at least this many remain.
const MIN_KEPT_PASSES: usize = 3;
/// Cap on hold-model steps (the result is per step).
const HOLD_STEPS: u64 = 1_000_000;
/// Repetitions of each once-per-run layer measurement (median reported).
const LAYER_REPS: usize = 3;

/// The result of one invocation.
pub struct Outcome {
    /// `(name, value)` for every metric of the mode, in catalog order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Simulations executed.
    pub attempted: u64,
    /// Simulations that failed a correctness gate or disagreed with the
    /// first pass.
    pub failed: u64,
    /// Everything that makes `correct` false, for the human reader.
    pub problems: Vec<String>,
    /// `(name, min, max, samples)` of each host-time metric over passes.
    pub spreads: Vec<(&'static str, f64, f64, usize)>,
    /// Phase spans of the traced passes and the merged callback spans.
    pub trace: Option<TraceData>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

pub struct TraceData {
    /// `(pass, rep, span)`.
    pub spans: Vec<(u32, u32, Span)>,
    pub callbacks: [SpanStats; 7],
}

struct LayerInputs {
    trace: Option<Trace>,
    audit_config: Option<AuditConfig>,
    link_delays_us: Vec<u64>,
}

struct Pass {
    phases: PhaseNs,
    exact: Exact,
    callbacks: [SpanStats; 7],
    actions: u64,
    cpu_share: Option<f64>,
    instances: u64,
    failed_instances: u64,
    failures: Vec<String>,
    delays_us: Vec<u64>,
    lateness: Vec<f64>,
    layers: Option<LayerInputs>,
    spans: Vec<(u32, Span)>,
}

fn run_pass<const TRACE: bool>(
    w: &Workload,
    scenario: &Scenario,
    keep: Keep,
    origin: Instant,
) -> Pass {
    let cpu_before = host::cpu_seconds();
    let started = Instant::now();
    let mut pass = Pass {
        phases: PhaseNs::default(),
        exact: Exact::default(),
        callbacks: Default::default(),
        actions: 0,
        cpu_share: None,
        instances: 0,
        failed_instances: 0,
        failures: Vec::new(),
        delays_us: Vec::new(),
        lateness: Vec::new(),
        layers: None,
        spans: Vec::new(),
    };
    for rep in 0..w.instances {
        // Layer inputs (trace, link delays) are kept for instance 0 only.
        let keep = Keep {
            layers: keep.layers && rep == 0,
            ..keep
        };
        let run = run_instance::<TRACE>(scenario, rep, w.capture_trace, keep, origin);
        pass.phases.add(&run.phases);
        pass.exact.pool(&run.exact);
        for (mine, theirs) in pass.callbacks.iter_mut().zip(&run.observed.callbacks) {
            mine.merge(theirs);
        }
        pass.actions += run.observed.actions;
        pass.instances += 1;
        if !run.gate_failures.is_empty() {
            pass.failed_instances += 1;
            pass.failures.extend(
                run.gate_failures
                    .iter()
                    .map(|f| format!("instance {rep}: {f}")),
            );
        }
        pass.delays_us.extend(run.delays_us);
        pass.lateness.extend(run.lateness);
        if keep.layers {
            pass.layers = Some(LayerInputs {
                trace: run.trace,
                audit_config: run.audit_config,
                link_delays_us: run.link_delays_us,
            });
        }
        pass.spans.extend(run.spans.into_iter().map(|s| (rep, s)));
    }
    let wall = started.elapsed().as_secs_f64();
    pass.cpu_share = cpu_before
        .zip(host::cpu_seconds())
        .map(|(before, after)| (after - before) / wall);
    pass
}

/// The passes whose timings count: all of them, minus starved ones while
/// enough remain.
fn kept<'a>(passes: &[&'a Pass]) -> Vec<&'a Pass> {
    let fed: Vec<&Pass> = passes
        .iter()
        .copied()
        .filter(|p| p.cpu_share.is_none_or(|s| s >= MIN_CPU_SHARE))
        .collect();
    if fed.len() >= MIN_KEPT_PASSES {
        fed
    } else {
        passes.to_vec()
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median, and the spread record, of one host-time quantity over passes.
fn host_metric(
    spreads: &mut Vec<(&'static str, f64, f64, usize)>,
    name: &'static str,
    passes: &[&Pass],
    f: impl Fn(&Pass) -> f64,
) -> f64 {
    let values: Vec<f64> = passes.iter().map(|p| f(p)).collect();
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    spreads.push((name, min, max, values.len()));
    median(&values)
}

/// Gates shared by both modes: per-instance failures, pass-to-pass
/// determinism, and the workload's delivery floor.
fn check_passes(w: &Workload, passes: &[&Pass], problems: &mut Vec<String>) -> (u64, u64) {
    let attempted = passes.iter().map(|p| p.instances).sum();
    let mut failed: u64 = passes.iter().map(|p| p.failed_instances).sum();
    if let Some(first) = passes.first() {
        problems.extend(first.failures.iter().cloned());
        for (i, p) in passes.iter().enumerate().skip(1) {
            if p.exact != first.exact {
                let diff: Vec<String> = first
                    .exact
                    .named()
                    .into_iter()
                    .zip(p.exact.named())
                    .filter(|(a, b)| a.1 != b.1)
                    .map(|(a, b)| format!("{} {} vs {}", a.0, a.1, b.1))
                    .collect();
                problems.push(format!(
                    "pass {i} disagrees with pass 0 on the same seed: {}",
                    diff.join(", ")
                ));
                failed += p.instances;
            }
        }
        let delivery = ratio(first.exact.delivered_pairs as f64, first.exact.pairs as f64);
        if delivery < w.delivery_floor {
            problems.push(format!(
                "delivery_ratio {delivery:.4} below the {} floor {}",
                w.name, w.delivery_floor
            ));
        }
    }
    (attempted, failed.min(attempted))
}

/// Runs passes of `w` for `seconds` with tracing off and reports the
/// end-to-end metrics.
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let scenario = w.scenario(seed);
    let origin = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    // At least two passes, so the determinism check always has a pair.
    while passes.len() < 2 || origin.elapsed().as_secs_f64() < seconds {
        let keep = Keep {
            samples: passes.is_empty(),
            layers: false,
        };
        passes.push(run_pass::<false>(w, &scenario, keep, origin));
    }
    let mut delays = std::mem::take(&mut passes[0].delays_us);
    delays.sort_unstable();
    let all: Vec<&Pass> = passes.iter().collect();
    let mut problems = Vec::new();
    let (attempted, failed) = check_passes(w, &all, &mut problems);

    let timed = kept(&all);
    let mut spreads = Vec::new();
    let wall_us_per_pair = host_metric(&mut spreads, "wall_us_per_pair", &timed, |p| {
        ratio(p.phases.wall as f64 / 1e3, p.exact.pairs as f64)
    });
    let setup_s = host_metric(&mut spreads, "setup_s", &timed, |p| {
        secs(p.phases.topology_gen + p.phases.workload_gen + p.phases.setup)
    });
    let events_per_s = host_metric(&mut spreads, "events_per_s", &timed, |p| {
        ratio(p.exact.events as f64, secs(p.phases.run - p.phases.setup))
    });

    let first = &passes[0];
    let e = &first.exact;
    let pairs = e.pairs as f64;
    let delay_ms = |p: f64| percentile_sorted(&delays, p).map_or(0.0, |us| us as f64 / 1000.0);

    let values: [(&str, f64); 9] = [
        ("wall_us_per_pair", wall_us_per_pair),
        ("setup_s", setup_s),
        ("events_per_s", events_per_s),
        ("allocs_per_hop", ratio(e.loop_allocs as f64, e.hops as f64)),
        ("delivery_ratio", ratio(e.delivered_pairs as f64, pairs)),
        ("qos_delivery_ratio", ratio(e.on_time_pairs as f64, pairs)),
        ("packets_per_subscriber", ratio(e.hops as f64, pairs)),
        ("delay_p50_ms", delay_ms(50.0)),
        ("delay_p99_ms", delay_ms(99.0)),
    ];
    let metrics = in_catalog_order(&catalog::END_TO_END, &values, &mut problems);
    Outcome {
        metrics,
        attempted,
        failed,
        problems,
        spreads,
        trace: None,
    }
}

/// Orders `values` as the catalog lists them; a metric the catalog names
/// but the run did not produce is a benchmark bug and fails the run.
fn in_catalog_order(
    catalog: &'static [catalog::Metric],
    values: &[(&str, f64)],
    problems: &mut Vec<String>,
) -> Vec<(&'static str, f64)> {
    catalog
        .iter()
        .map(|m| {
            let value = values.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v);
            if value.is_none_or(|v| !v.is_finite()) {
                problems.push(format!("metric {} was not measured", m.name));
            }
            (m.name, value.filter(|v| v.is_finite()).unwrap_or(0.0))
        })
        .collect()
}

/// Looks up a value already pushed under `name`.
fn value_of(values: &[(&'static str, f64)], name: &str) -> f64 {
    values
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// A host-time quantity read off one pass.
type PassTime = fn(&Pass) -> f64;

/// The per-layer metrics that are medians of a pass time.
const PASS_TIMES: [(&str, PassTime); 8] = [
    ("host.pass_wall_s", |p| secs(p.phases.wall)),
    ("net.topology_gen_s", |p| secs(p.phases.topology_gen)),
    ("pubsub.workload_gen_s", |p| secs(p.phases.workload_gen)),
    ("core.setup_s", |p| secs(p.phases.setup)),
    ("runtime.run_s", |p| secs(p.phases.run)),
    ("runtime.loop_s", |p| secs(p.phases.run - p.phases.setup)),
    ("runtime.self_s", |p| {
        let callbacks: u64 = p.callbacks.iter().map(|c| c.total_ns).sum();
        secs((p.phases.run - p.phases.setup).saturating_sub(callbacks))
    }),
    ("metrics.from_log_s", |p| secs(p.phases.from_log)),
];

/// Runs `f` (which returns the nanoseconds it measured) `LAYER_REPS` times
/// inside one span named `name`, and returns the median.
fn layer_once(
    spans: &mut Vec<(u32, u32, Span)>,
    origin: Instant,
    name: &'static str,
    mut f: impl FnMut() -> u64,
) -> f64 {
    let start_ns = origin.elapsed().as_nanos() as u64;
    let ns: Vec<f64> = (0..LAYER_REPS).map(|_| f() as f64).collect();
    let end_ns = origin.elapsed().as_nanos() as u64;
    let span = Span {
        name,
        parent: None,
        start_ns,
        end_ns,
    };
    spans.push((0, 0, span));
    median(&ns)
}

/// Alternates untraced and traced passes of `w` for `seconds` and reports
/// the per-layer metrics. Both kinds of pass simulate the same seed, so
/// the determinism check also covers traced-vs-untraced.
pub fn per_layer(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let scenario = w.scenario(seed);
    let origin = Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    while traced.is_empty() || origin.elapsed().as_secs_f64() < seconds {
        untraced.push(run_pass::<false>(w, &scenario, Keep::default(), origin));
        let keep = Keep {
            samples: traced.is_empty(),
            layers: traced.is_empty(),
        };
        traced.push(run_pass::<true>(w, &scenario, keep, origin));
    }
    let mut lateness = std::mem::take(&mut traced[0].lateness);
    lateness.sort_by(f64::total_cmp);
    let all: Vec<&Pass> = untraced.iter().chain(traced.iter()).collect();
    let mut problems = Vec::new();
    let (attempted, failed) = check_passes(w, &all, &mut problems);
    let first = &traced[0];
    // Callback counts exist in traced passes only; they too must repeat.
    for (i, p) in traced.iter().enumerate().skip(1) {
        let same = p.actions == first.actions
            && p.callbacks
                .iter()
                .zip(&first.callbacks)
                .all(|(a, b)| a.count == b.count);
        if !same {
            problems.push(format!(
                "traced pass {i} made different callback calls than traced pass 0"
            ));
        }
    }

    let t_all: Vec<&Pass> = traced.iter().collect();
    let u_all: Vec<&Pass> = untraced.iter().collect();
    let t_kept = kept(&t_all);
    let u_kept = kept(&u_all);
    let e = &first.exact;
    let mut spreads = Vec::new();
    let mut v: Vec<(&'static str, f64)> = Vec::new();

    for (name, f) in PASS_TIMES {
        v.push((name, host_metric(&mut spreads, name, &t_kept, f)));
    }
    let setup_ns = value_of(&v, "core.setup_s") * 1e9;
    let loop_ns = value_of(&v, "runtime.loop_s") * 1e9;
    let mut all_callbacks = SpanStats::default();
    for c in Callback::ALL {
        let totals: Vec<f64> = t_kept
            .iter()
            .map(|p| secs(p.callbacks[c as usize].total_ns))
            .collect();
        v.push((c.seconds_metric(), median(&totals)));
        v.push((c.calls_metric(), first.callbacks[c as usize].count as f64));
        for p in &t_kept {
            all_callbacks.merge(&p.callbacks[c as usize]);
        }
    }
    v.push((
        "core.callback_p99_ns",
        all_callbacks.percentile_upper_ns(99.0) as f64,
    ));
    v.push(("core.actions", first.actions as f64));
    v.push((
        "core.slow_path_share",
        ratio((e.sends_blocked + e.sends_lost) as f64, e.hops as f64),
    ));
    v.push((
        "core.setup_ns_per_pair",
        ratio(setup_ns, e.table_pairs as f64),
    ));
    v.push(("runtime.loop_ns_per_event", ratio(loop_ns, e.events as f64)));
    v.push(("runtime.loop_ns_per_hop", ratio(loop_ns, e.hops as f64)));
    v.push((
        "runtime.ack_ratio",
        ratio(e.acks_delivered as f64, e.hops as f64),
    ));
    v.push((
        "metrics.lateness_p99",
        percentile_sorted(&lateness, 99.0).unwrap_or(0.0),
    ));
    v.extend(e.named().into_iter().map(|(n, x)| (n, x as f64)));

    // Once-per-run layer measurements on instance 0 of the first traced
    // pass, outside every pass's wall time.
    let mut spans: Vec<(u32, u32, Span)> = Vec::new();
    for (i, p) in traced.iter().enumerate() {
        spans.extend(p.spans.iter().map(|(rep, s)| (i as u32, *rep, *s)));
    }
    let inputs = first.layers.as_ref();
    let link_delays = inputs.map_or(&[][..], |l| &l.link_delays_us[..]);
    let mix = increment_mix(seed, link_delays, e.hops, e.messages, 4096);
    let steps = e.events.min(HOLD_STEPS);
    let hold_ns = layer_once(&mut spans, origin, "sim.hold", || {
        let result = hold(e.peak_queue_len as usize, steps, &mix);
        if !result.monotone || result.steps != steps {
            problems.push("hold model lost events or popped them out of time order".into());
        }
        result.ns
    });
    let hold_ns_per_event = ratio(hold_ns, steps as f64);
    v.push(("sim.hold_ns_per_event", hold_ns_per_event));
    v.push((
        "sim.hold_share",
        ratio(hold_ns_per_event * e.events as f64, loop_ns),
    ));

    let (mut replay_ns, mut replay_events, mut digest_ns) = (0.0, 0, 0.0);
    if let Some((trace, config)) = inputs.and_then(|l| l.trace.as_ref().zip(l.audit_config)) {
        replay_ns = layer_once(&mut spans, origin, "audit.replay", || {
            let start = Instant::now();
            let mut auditor = InvariantAuditor::new(config);
            for event in trace.events() {
                auditor.observe(event);
            }
            replay_events = auditor.finish().events_observed;
            start.elapsed().as_nanos() as u64
        });
        digest_ns = layer_once(&mut spans, origin, "trace.digest", || {
            let start = Instant::now();
            std::hint::black_box(std::hint::black_box(trace).digest());
            start.elapsed().as_nanos() as u64
        });
    }
    v.push(("audit.replay_s", replay_ns / 1e9));
    v.push(("audit.events", replay_events as f64));
    v.push((
        "audit.replay_ns_per_event",
        ratio(replay_ns, replay_events as f64),
    ));
    v.push(("trace.digest_s", digest_ns / 1e9));

    v.push(("host.peak_rss_mb", host::peak_rss_mib().unwrap_or(0.0)));
    let shares: Vec<f64> = t_kept.iter().filter_map(|p| p.cpu_share).collect();
    v.push(("host.cpu_share", median(&shares)));
    v.push((
        "host.discarded_passes",
        (t_all.len() - t_kept.len() + u_all.len() - u_kept.len()) as f64,
    ));
    v.push(("host.passes", t_kept.len() as f64));
    let wall = |ps: &[&Pass]| median(&ps.iter().map(|p| secs(p.phases.wall)).collect::<Vec<_>>());
    v.push((
        "host.trace_overhead_pct",
        (ratio(wall(&t_kept), wall(&u_kept)) - 1.0) * 100.0,
    ));

    let metrics = in_catalog_order(&catalog::PER_LAYER, &v, &mut problems);
    let mut callbacks: [SpanStats; 7] = Default::default();
    for p in &traced {
        for (merged, c) in callbacks.iter_mut().zip(&p.callbacks) {
            merged.merge(c);
        }
    }
    Outcome {
        metrics,
        attempted,
        failed,
        problems,
        spreads,
        trace: Some(TraceData { spans, callbacks }),
    }
}
