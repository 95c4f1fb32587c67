//! Command-line driver regenerating every figure of the DCRD paper.
//!
//! ```text
//! dcrd-experiments <figure> [--quality smoke|quick|standard|full] [--out DIR]
//!
//! figures: fig2 fig3 fig4 fig5 fig6 fig7 fig8
//!          ablation-ordering ablation-reroute ablation-timeout
//!          ablation-monitor chaos recovery churn gossip hostile all
//! ```
//!
//! Without `--out`, tables print to stdout; with it, each figure also writes
//! `<DIR>/<figure>.txt`, `<DIR>/<figure>.csv` and (where applicable)
//! `<DIR>/<figure>.json`.
//!
//! A second mode checks a deployment analytically, without simulating:
//!
//! ```text
//! dcrd-experiments predict --nodes 20 --degree 5 --pf 0.06 [--factor 3.0] [--seed N]
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use dcrd_experiments::chaos::{chaos_crashes, chaos_gray, chaos_partition};
use dcrd_experiments::churn::churn_rates;
use dcrd_experiments::figures::{
    self, ablation_monitor, ablation_multipath, ablation_ordering, ablation_reroute,
    ablation_timeout, ext_burst_failures, ext_node_failures, fig2, fig3, fig4, fig5, fig6, fig8,
};
use dcrd_experiments::gossip::gossip_loss;
use dcrd_experiments::hostile::flash_crowd;
use dcrd_experiments::recovery::recovery_crashes;
use dcrd_experiments::scenario::Quality;
use dcrd_metrics::plot::{figure_svg, render_svg, PlotConfig, PlotSeries};
use dcrd_metrics::report::{render_cdf, to_json, FigureSeries, MetricKind};
use dcrd_metrics::AggregateMetrics;

fn usage() -> ExitCode {
    eprintln!(
        "usage: dcrd-experiments <figure|all> [--quality smoke|quick|standard|full] [--out DIR]\n\
                dcrd-experiments run [--nodes N] [--degree D | --mesh] [--pf X] [--burst EPOCHS] ...\n\
                dcrd-experiments predict --nodes N (--degree D | --mesh) --pf X [--pl Y] [--factor F] [--seed S]\n\
         figures: {}",
        FIGURES.map(|(name, _)| name).join(" ")
    );
    ExitCode::FAILURE
}

/// One-off custom scenario: simulate all strategies on user-chosen
/// parameters and print the comparison table.
fn run_custom(args: &[String]) -> ExitCode {
    use dcrd_experiments::runner::run_comparison;
    use dcrd_experiments::scenario::ScenarioBuilder;
    use dcrd_experiments::StrategyKind;

    let mut nodes = 20usize;
    let mut degree: Option<usize> = Some(5);
    let mut pf = 0.06f64;
    let mut pn = 0.0f64;
    let mut pl = 1e-4f64;
    let mut m = 1u32;
    let mut factor = 3.0f64;
    let mut duration = 120u64;
    let mut reps = 3u32;
    let mut seed = 0x0DC2Du64;
    let mut burst: Option<f64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |target: &mut dyn FnMut(&str) -> bool| -> bool {
            it.next().map(|v| target(v)).unwrap_or(false)
        };
        let ok = match arg.as_str() {
            "--nodes" => take(&mut |v| v.parse().map(|x| nodes = x).is_ok()),
            "--degree" => take(&mut |v| v.parse().map(|x| degree = Some(x)).is_ok()),
            "--mesh" => {
                degree = None;
                true
            }
            "--pf" => take(&mut |v| v.parse().map(|x| pf = x).is_ok()),
            "--pn" => take(&mut |v| v.parse().map(|x| pn = x).is_ok()),
            "--pl" => take(&mut |v| v.parse().map(|x| pl = x).is_ok()),
            "--m" => take(&mut |v| v.parse().map(|x| m = x).is_ok()),
            "--factor" => take(&mut |v| v.parse().map(|x| factor = x).is_ok()),
            "--duration" => take(&mut |v| v.parse().map(|x| duration = x).is_ok()),
            "--reps" => take(&mut |v| v.parse().map(|x| reps = x).is_ok()),
            "--seed" => take(&mut |v| v.parse().map(|x| seed = x).is_ok()),
            "--burst" => take(&mut |v| v.parse().map(|x| burst = Some(x)).is_ok()),
            _ => false,
        };
        if !ok {
            eprintln!(
                "usage: dcrd-experiments run [--nodes N] [--degree D | --mesh] [--pf X] [--pn X]                  [--pl X] [--m M] [--factor F] [--duration SECS] [--reps R] [--seed S] [--burst EPOCHS]"
            );
            return ExitCode::FAILURE;
        }
    }
    let mut builder = ScenarioBuilder::new()
        .nodes(nodes)
        .failure_probability(pf)
        .node_failure_probability(pn)
        .loss_rate(pl)
        .transmissions(m)
        .deadline_factor(factor)
        .duration_secs(duration)
        .repetitions(reps)
        .seed(seed);
    builder = match degree {
        Some(d) => builder.degree(d),
        None => builder.full_mesh(),
    };
    if let Some(b) = burst {
        builder = builder.bursty_failures(b);
    }
    let scenario = builder.build();
    eprintln!(
        "simulating {reps} × {duration}s: {nodes} brokers, {}, Pf={pf}, Pn={pn}, Pl={pl}, m={m}, factor={factor}...",
        degree.map_or("full mesh".to_string(), |d| format!("degree {d}"))
    );
    let results = run_comparison(&scenario, &StrategyKind::ALL);
    println!(
        "{:<12}{:>12}{:>12}{:>12}{:>14}{:>10}",
        "strategy", "delivery", "QoS", "pkts/sub", "mean delay", "±QoS"
    );
    for agg in &results {
        println!(
            "{:<12}{:>12.4}{:>12.4}{:>12.3}{:>12.1}ms{:>10.4}",
            agg.name(),
            agg.delivery_ratio(),
            agg.qos_delivery_ratio(),
            agg.packets_per_subscriber(),
            agg.delay_stats().mean(),
            agg.qos_std_dev()
        );
    }
    ExitCode::SUCCESS
}

/// Analytic deployment check: per-subscription expected delay and delivery
/// probability from the routing tables, no simulation.
fn predict(args: &[String]) -> ExitCode {
    let mut nodes = 20usize;
    let mut degree: Option<usize> = None;
    let mut pf = 0.06f64;
    let mut pl = 1e-4f64;
    let mut factor = 3.0f64;
    let mut seed = 0x0DC2Du64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut take = |target: &mut dyn FnMut(&str) -> bool| -> bool {
            it.next().map(|v| target(v)).unwrap_or(false)
        };
        let ok = match arg.as_str() {
            "--nodes" => take(&mut |v| v.parse().map(|x| nodes = x).is_ok()),
            "--degree" => take(&mut |v| v.parse().map(|x| degree = Some(x)).is_ok()),
            "--mesh" => {
                degree = None;
                true
            }
            "--pf" => take(&mut |v| v.parse().map(|x| pf = x).is_ok()),
            "--pl" => take(&mut |v| v.parse().map(|x| pl = x).is_ok()),
            "--factor" => take(&mut |v| v.parse().map(|x| factor = x).is_ok()),
            "--seed" => take(&mut |v| v.parse().map(|x| seed = x).is_ok()),
            _ => false,
        };
        if !ok {
            return usage();
        }
    }

    use dcrd_core::analysis::predict_workload;
    use dcrd_core::DcrdConfig;
    use dcrd_experiments::runner::{build_topology, build_workload};
    use dcrd_experiments::scenario::ScenarioBuilder;
    use dcrd_net::estimate::analytic_estimates;

    let mut builder = ScenarioBuilder::new()
        .nodes(nodes)
        .failure_probability(pf)
        .loss_rate(pl)
        .deadline_factor(factor)
        .seed(seed);
    builder = match degree {
        Some(d) => builder.degree(d),
        None => builder.full_mesh(),
    };
    let scenario = builder.build();
    let topo = build_topology(&scenario, 0);
    let workload = build_workload(&scenario, &topo, 0);
    let estimates = analytic_estimates(&topo, pf, pl);
    let predictions = predict_workload(&topo, &estimates, 1, &workload, &DcrdConfig::default());

    println!(
        "{:>8}{:>8}{:>8}{:>14}{:>16}{:>10}{:>10}",
        "topic", "pub", "sub", "requirement", "expected delay", "r", "verdict"
    );
    let mut on_time = 0usize;
    for p in &predictions {
        if p.expected_on_time {
            on_time += 1;
        }
        println!(
            "{:>8}{:>8}{:>8}{:>14}{:>16}{:>10.4}{:>10}",
            p.topic.to_string(),
            p.publisher.to_string(),
            p.subscriber.to_string(),
            p.requirement.to_string(),
            p.expected_delay
                .map_or_else(|| "unreachable".to_string(), |d| d.to_string()),
            p.expected_delivery_ratio,
            if p.expected_on_time { "OK" } else { "AT RISK" }
        );
    }
    println!(
        "
{on_time}/{} subscriptions expected on time at Pf={pf}, Pl={pl}, factor={factor}",
        predictions.len()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "predict") {
        return predict(&args[1..]);
    }
    if args.first().is_some_and(|a| a == "run") {
        return run_custom(&args[1..]);
    }
    let mut figure: Option<String> = None;
    let mut quality = Quality::Quick;
    let mut out_dir: Option<PathBuf> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quality" => {
                let Some(q) = it.next().and_then(|s| Quality::parse(s)) else {
                    return usage();
                };
                quality = q;
            }
            "--out" => {
                let Some(dir) = it.next() else {
                    return usage();
                };
                out_dir = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            name if !name.starts_with('-') && figure.is_none() => {
                figure = Some(name.to_string());
            }
            _ => return usage(),
        }
    }
    let Some(figure) = figure else {
        return usage();
    };

    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }

    let selected: Vec<_> = FIGURES
        .into_iter()
        .filter(|(name, _)| figure == "all" || figure == *name)
        .collect();
    if selected.is_empty() {
        return usage();
    }

    for (name, driver) in selected {
        let start = Instant::now();
        eprintln!("running {name} at {quality:?} quality...");
        let output = driver.run(quality);
        eprintln!("{name} done in {:.1}s", start.elapsed().as_secs_f64());
        print!("{}", output.text);
        if let Some(dir) = &out_dir {
            if let Err(e) = write_outputs(dir, name, &output) {
                eprintln!("failed writing outputs for {name}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

struct FigureOutput {
    text: String,
    csv: String,
    json: Option<String>,
    /// `(suffix, svg document)` pairs, e.g. `("delivery", "<svg...")`.
    svgs: Vec<(&'static str, String)>,
}

/// How a figure is produced.
enum Figure {
    /// One sweep series, rendered by [`series_output`].
    Sweep(fn(Quality) -> FigureSeries, &'static Layout),
    /// Any other output.
    Custom(fn(Quality) -> FigureOutput),
}

use Figure::{Custom, Sweep};

/// Every figure, in `all` order.
const FIGURES: [(&str, Figure); 20] = [
    ("fig2", Sweep(fig2, &ALL)),
    ("fig3", Sweep(fig3, &ALL)),
    ("fig4", Sweep(fig4, &ALL)),
    ("fig5", Sweep(fig5, &ALL)),
    ("fig6", Sweep(fig6, &QOS)),
    ("fig7", Custom(fig7_output)),
    ("fig8", Sweep(fig8, &LOG_QOS)),
    ("ext-node-failures", Sweep(ext_node_failures, &ALL)),
    ("ext-burst-failures", Sweep(ext_burst_failures, &ALL)),
    ("ext-control-overhead", Custom(control_overhead_output)),
    ("ablation-multipath", Sweep(ablation_multipath, &ALL)),
    ("ablation-ordering", Sweep(ablation_ordering, &QOS)),
    ("ablation-reroute", Sweep(ablation_reroute, &ALL)),
    ("ablation-timeout", Sweep(ablation_timeout, &QOS)),
    ("ablation-monitor", Sweep(ablation_monitor, &QOS)),
    ("chaos", Custom(chaos_output)),
    ("recovery", Sweep(recovery_crashes, &RECOVERY)),
    ("churn", Sweep(churn_rates, &CHURN)),
    ("gossip", Sweep(gossip_loss, &GOSSIP)),
    ("hostile", Sweep(flash_crowd, &HOSTILE)),
];

impl Figure {
    fn run(&self, quality: Quality) -> FigureOutput {
        match *self {
            Sweep(sweep, layout) => series_output(&[sweep(quality)], layout),
            Custom(run) => run(quality),
        }
    }
}

/// How a figure made of sweep series renders.
struct Layout {
    /// Metrics tabulated for every series.
    tables: &'static [MetricKind],
    /// `(series index, metric, file suffix)` of every SVG plot.
    plots: &'static [(usize, MetricKind, &'static str)],
    log_x: bool,
    /// Lines printed under the tables. Their `{}` holes take the values
    /// of `holes` in order; a line with a hole that has no value is left
    /// out.
    footer: &'static str,
    holes: &'static [Hole],
}

/// A value computed from every series of a figure, if it has one.
type Hole = fn(&[FigureSeries]) -> Option<String>;

/// Sums a counter over every aggregate of every series, or only over the
/// arm labelled `arm`.
fn sum(
    series: &[FigureSeries],
    arm: Option<&str>,
    count: fn(&AggregateMetrics) -> u64,
) -> Option<String> {
    let total: u64 = series.iter().map(|s| s.total(arm, count)).sum();
    Some(total.to_string())
}

fn violations(series: &[FigureSeries], arm: &str) -> Option<String> {
    sum(series, Some(arm), |a| a.audit_violations())
}

const AUDIT: Hole = |s| sum(s, None, |a| a.audit_violations());
const RUMORS: Hole = |s| sum(s, None, |a| a.rumors_sent());
const ANTI_ENTROPY: Hole = |s| sum(s, None, |a| a.anti_entropy_rounds());
const DELTAS: Hole = |s| sum(s, None, |a| a.gossip_deltas_applied());
const STALE: Hole = |s| sum(s, None, |a| a.stale_reconciliations());

const ALL: Layout = Layout {
    tables: &[MetricKind::Delivery, MetricKind::Qos, MetricKind::Traffic],
    plots: &[
        (0, MetricKind::Delivery, "delivery"),
        (0, MetricKind::Qos, "qos"),
        (0, MetricKind::Traffic, "traffic"),
    ],
    log_x: false,
    footer: "",
    holes: &[],
};
const QOS: Layout = Layout {
    tables: &[MetricKind::Qos],
    plots: &[(0, MetricKind::Qos, "qos")],
    ..ALL
};
const LOG_QOS: Layout = Layout { log_x: true, ..QOS };

/// The studies tabulate delivery and QoS, and plot one metric per series.
const STUDY: &[MetricKind] = &[MetricKind::Delivery, MetricKind::Qos];

const CHAOS: Layout = Layout {
    tables: STUDY,
    plots: &[
        (0, MetricKind::Qos, "partition-qos"),
        (1, MetricKind::Qos, "crashes-qos"),
        (2, MetricKind::Qos, "gray-qos"),
    ],
    footer: "invariant auditor: {} violation(s) across the chaos sweep\n",
    holes: &[AUDIT],
    ..ALL
};
const RECOVERY: Layout = Layout {
    tables: STUDY,
    plots: &[(0, MetricKind::Delivery, "crashes-delivery")],
    footer: "invariant auditor: {} violation(s) across the recovery sweep\n\
             (recovery arm audited end-to-end: every published pair must arrive exactly once)\n",
    holes: &[AUDIT],
    ..ALL
};
const CHURN: Layout = Layout {
    tables: STUDY,
    plots: &[(0, MetricKind::Delivery, "rates-delivery")],
    footer: "invariant auditor: {} violation(s) across the churn sweep\n\
             control plane: {} rumor(s) pushed, {} anti-entropy round(s), \
             {} delta(s) applied, {} stale reconciliation(s)\n",
    holes: &[AUDIT, RUMORS, ANTI_ENTROPY, DELTAS, STALE],
    ..ALL
};
const GOSSIP: Layout = Layout {
    tables: STUDY,
    plots: &[(0, MetricKind::Delivery, "loss-delivery")],
    footer: "invariant auditor: {} violation(s) across the gossip sweep (staleness clause armed)\n\
             (gossip must track the oracle control plane; \
             the static arm shows the cost of no dissemination)\n\
             control plane: {} rumor(s) pushed, {} anti-entropy round(s), \
             {} delta(s) applied, {} stale reconciliation(s)\n",
    holes: &[AUDIT, RUMORS, ANTI_ENTROPY, DELTAS, STALE],
    ..ALL
};
/// The last line is the acceptance metric: delivery among still-satisfiable
/// pairs for the least-slack arm at the 4x crowd.
const HOSTILE: Layout = Layout {
    tables: STUDY,
    plots: &[(0, MetricKind::Delivery, "flash-crowd-delivery")],
    footer: "invariant auditor: least-slack {} violation(s), \
             unbounded {} violation(s) (both must be 0)\n\
             invariant auditor: tail-drop {} violation(s) \
             (UnjustifiedShed expected under overload)\n\
             bounded queues shed {} packet(s) total\n\
             least-slack in-slack delivery at 4x: {} (gate: >= 0.99)\n",
    holes: &[
        |s| violations(s, "DCRD-least-slack"),
        |s| violations(s, "DCRD-unbounded"),
        |s| violations(s, "DCRD-tail-drop"),
        |s| sum(s, None, |a| a.sheds()),
        |s| {
            let crowd = s.iter().flat_map(|s| &s.points).find(|p| p.x == 4.0)?;
            let arm = crowd.strategies.first()?;
            Some(format!("{:.4}", arm.in_slack_delivery_ratio()))
        },
    ],
    ..ALL
};

/// Renders sweep series: every series' tables, then the footer; every
/// series' CSV; the plots. One series writes its JSON as an object,
/// several as an array.
fn series_output(series: &[FigureSeries], layout: &Layout) -> FigureOutput {
    let mut text = String::new();
    for s in series {
        for &m in layout.tables {
            text.push_str(&s.render_table(m));
            text.push('\n');
        }
    }
    let mut holes = layout.holes.iter().map(|hole| hole(series));
    for line in layout.footer.lines() {
        let mut parts = line.split("{}");
        let mut filled = parts.next().unwrap_or_default().to_string();
        let mut complete = true;
        for part in parts {
            match holes.next().flatten() {
                Some(value) => filled.push_str(&value),
                None => complete = false,
            }
            filled.push_str(part);
        }
        if complete {
            text.push_str(&filled);
            text.push('\n');
        }
    }
    FigureOutput {
        text,
        csv: series.iter().map(FigureSeries::render_csv).collect(),
        json: Some(to_json(series)),
        svgs: layout
            .plots
            .iter()
            .map(|&(i, m, suffix)| (suffix, figure_svg(&series[i], m, layout.log_x)))
            .collect(),
    }
}

/// The three chaos sweeps: one JSON array, one plot per sweep.
fn chaos_output(quality: Quality) -> FigureOutput {
    let sweeps = [
        chaos_partition(quality),
        chaos_crashes(quality),
        chaos_gray(quality),
    ];
    series_output(&sweeps, &CHAOS)
}

fn fig7_output(quality: Quality) -> FigureOutput {
    let mut text = String::new();
    let mut csv = String::from("series,x,cdf\n");
    let mut lines = Vec::new();
    for (label, series) in figures::fig7(quality) {
        text.push_str(&render_cdf(&label, &decimate(&series)));
        text.push('\n');
        for (x, y) in &series {
            csv.push_str(&format!("{label},{x:.4},{y:.6}\n"));
        }
        lines.push(PlotSeries {
            label,
            points: series,
        });
    }
    let svg = render_svg(
        &lines,
        &PlotConfig {
            title: "fig7 — lateness CDF of deadline misses".into(),
            x_label: "actual delay / requirement".into(),
            y_label: "CDF".into(),
            y_range: Some((0.0, 1.0)),
            ..PlotConfig::default()
        },
    );
    FigureOutput {
        text,
        csv,
        json: None,
        svgs: vec![("cdf", svg)],
    }
}

fn control_overhead_output(quality: Quality) -> FigureOutput {
    let points = figures::ext_control_overhead(quality);
    let mut text = String::from("# ext-control-overhead — table computation cost\n");
    text.push_str(&format!(
        "{:>8}{:>14}{:>12}{:>18}\n",
        "nodes", "mean rounds", "max rounds", "ctrl msgs/sub"
    ));
    let mut csv = String::from("nodes,mean_rounds,max_rounds,messages_per_subscription\n");
    for p in &points {
        text.push_str(&format!(
            "{:>8}{:>14.2}{:>12}{:>18.0}\n",
            p.nodes, p.mean_rounds, p.max_rounds, p.messages_per_subscription
        ));
        csv.push_str(&format!(
            "{},{:.3},{},{:.1}\n",
            p.nodes, p.mean_rounds, p.max_rounds, p.messages_per_subscription
        ));
    }
    FigureOutput {
        text,
        csv,
        json: None,
        svgs: Vec::new(),
    }
}

/// Thins a dense CDF series for terminal display (keep every 8th point).
fn decimate(series: &[(f64, f64)]) -> Vec<(f64, f64)> {
    series
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 8 == 0 || *i == series.len() - 1)
        .map(|(_, &p)| p)
        .collect()
}

fn write_outputs(dir: &Path, name: &str, output: &FigureOutput) -> std::io::Result<()> {
    std::fs::write(dir.join(format!("{name}.txt")), &output.text)?;
    std::fs::write(dir.join(format!("{name}.csv")), &output.csv)?;
    if let Some(json) = &output.json {
        std::fs::write(dir.join(format!("{name}.json")), json)?;
    }
    for (suffix, svg) in &output.svgs {
        std::fs::write(dir.join(format!("{name}-{suffix}.svg")), svg)?;
    }
    Ok(())
}
