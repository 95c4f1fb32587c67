//! `--list` and `--workload all`: the human-facing views over the same
//! tables and the same single-workload runs the driver uses.

use std::process::{Command, ExitCode};

use crate::catalog::{self, Kind, Metric};
use crate::json::{self, Value};
use crate::stats::median;
use crate::workloads::{Workload, WORKLOADS};
use crate::{host, Args};

fn print_metrics(title: &str, table: &[Metric]) {
    println!("{title}");
    for m in table {
        println!(
            "  {:<34} {:<9} {:<7} {:>6}  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
                .map_or(String::from("-"), |b| format!("{:.0}%", b * 100.0)),
            m.note
        );
    }
}

/// Prints every workload and metric from the tables the run itself uses.
pub fn list() {
    println!("workloads (name, simulations per pass, shape, why)");
    for w in &WORKLOADS {
        println!("  {:<12} x{}  {}", w.name, w.instances, w.shape);
        println!("  {:<12}     why: {}", "", w.why);
    }
    print_metrics(
        "end-to-end metrics (name, unit, better, regression bound, definition)",
        &catalog::END_TO_END,
    );
    print_metrics(
        "per-layer metrics (name, unit, better, -, definition and what it moves)",
        &catalog::PER_LAYER,
    );
    println!(
        "default seed {}, held-out seed {}",
        crate::DEFAULT_SEED,
        crate::HELD_OUT_SEED
    );
}

/// One child run of this binary on one workload; returns its result line.
fn child(w: &Workload, args: &Args, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot run {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{} exited with {}: {}",
            w.name,
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    for line in stdout.lines().filter(|l| l.starts_with("PROBLEM")) {
        println!("  {}: {line}", w.name);
    }
    let last = stdout.lines().last().ok_or("no output")?;
    json::parse(last).map_err(|e| format!("{}: result line does not parse: {e}", w.name))
}

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Runs every workload in its own process (so `host.peak_rss_mb` is per
/// workload) `--runs` times untraced, plus once traced with `--trace 1`,
/// and prints the noise report.
pub fn run_all(args: &Args) -> ExitCode {
    println!(
        "benchmark all: seed {} seconds {} runs {} | nproc {} | {}",
        args.seed,
        args.seconds,
        args.runs,
        host::nproc(),
        host::rustc_version()
    );
    let mut ok = true;
    for w in &WORKLOADS {
        println!(
            "\n== {} (x{} simulations per pass): {}",
            w.name, w.instances, w.shape
        );
        let mut runs = Vec::new();
        for _ in 0..args.runs {
            match child(w, args, false) {
                Ok(v) => runs.push(v),
                Err(e) => {
                    println!("  FAILED: {e}");
                    ok = false;
                }
            }
        }
        ok &= runs
            .iter()
            .all(|r| r.get("correct").and_then(Value::as_bool) == Some(true));
        println!(
            "  {:<26} {:>14} {:>14} {:>14} {:>3} {:<9} {:<7} {:>5}",
            "end-to-end", "min", "median", "max", "n", "unit", "better", "bound"
        );
        for m in &catalog::END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| metric_value(r, m.name))
                .collect();
            if values.is_empty() {
                continue;
            }
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let mid = median(&values);
            let bound = m.bound.unwrap_or(0.0);
            let verdict = match m.kind {
                // Same seed, same inputs: a simulated value may not differ.
                Kind::Exact if min != max => {
                    ok = false;
                    "NOT REPEATABLE"
                }
                Kind::Host if mid > 0.0 && (max - min) / mid > bound => "unresolved",
                _ => "",
            };
            println!(
                "  {:<26} {:>14.6} {:>14.6} {:>14.6} {:>3} {:<9} {:<7} {:>4.0}% {}",
                m.name,
                min,
                mid,
                max,
                values.len(),
                m.unit,
                m.better.as_str(),
                bound * 100.0,
                verdict
            );
        }
        if args.trace {
            match child(w, args, true) {
                Ok(v) => {
                    ok &= v.get("correct").and_then(Value::as_bool) == Some(true);
                    println!(
                        "  {:<34} {:>16} {:<9}",
                        "per-layer (one traced run)", "value", "unit"
                    );
                    for m in &catalog::PER_LAYER {
                        if let Some(value) = metric_value(&v, m.name) {
                            println!("  {:<34} {:>16.6} {:<9}", m.name, value, m.unit);
                        }
                    }
                }
                Err(e) => {
                    println!("  FAILED: {e}");
                    ok = false;
                }
            }
        }
    }
    println!(
        "\n{}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    if args.check && !ok {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
