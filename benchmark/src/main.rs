//! The repository benchmark. See `README.md` beside `Cargo.toml` for the
//! workloads, the metrics and how to read the output.
//!
//! ```text
//! bash benchmark/run.sh --workload <name> --seed <u64> --seconds <s> --trace <0|1> [--check]
//! bash benchmark/run.sh --workload all --seed <u64> [--seconds <s>] [--runs N] [--trace 1] [--check]
//! bash benchmark/run.sh --list
//! ```
//!
//! A single-workload run prints a readable table and then, as the last
//! line of standard output, one JSON object `{correct, attempted, failed,
//! metrics}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.

mod alloc;
mod catalog;
mod hold;
mod host;
mod instance;
mod json;
mod measure;
mod report;
mod stats;
mod timed;
mod tracefile;
mod workloads;

use std::process::ExitCode;

use measure::Outcome;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Default workload seed, and the held-out seed a later performance claim
/// must also hold on (recorded in the README; `BENCHMARK.json` has no
/// place for them).
pub const DEFAULT_SEED: u64 = 20_110_620;
pub const HELD_OUT_SEED: u64 = 160_406_853;
const DEFAULT_SECONDS: f64 = 15.0;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub check: bool,
    pub runs: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: --workload <name|all> --seed <u64> --seconds <s> --trace <0|1> [--runs N] [--check] | --list\n\
         workloads: {}",
        workloads::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check: false,
        runs: 3,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--list" => return None,
            "--check" => args.check = true,
            "--workload" => args.workload = value("a workload name"),
            "--seed" => {
                args.seed = value("an unsigned integer")
                    .parse()
                    .unwrap_or_else(|_| usage())
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")
                    .parse()
                    .unwrap_or_else(|_| usage());
            }
            "--runs" => args.runs = value("a count").parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => {
                eprintln!("unknown argument: {flag}");
                usage();
            }
        }
    }
    if args.workload.is_empty() || !args.seconds.is_finite() || args.seconds < 0.0 || args.runs == 0
    {
        usage();
    }
    Some(args)
}

/// The result line the driver reads.
pub fn result_json(outcome: &Outcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    for (i, (name, value)) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        json::write_str(&mut out, name);
        out.push_str(": {\"value\": ");
        json::write_num(&mut out, *value);
        out.push_str(", \"unit\": ");
        json::write_str(&mut out, catalog::find(name).map_or("", |m| m.unit));
        out.push('}');
    }
    out.push_str("}}");
    out
}

fn print_table(w: &workloads::Workload, args: &Args, outcome: &Outcome) {
    println!(
        "benchmark {} seed {} seconds {} trace {} | {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.shape
    );
    println!(
        "{:<34} {:>16} {:<9} {:<7} {:>6}  passes [min .. max]",
        "metric", "value", "unit", "better", "bound"
    );
    for (name, value) in &outcome.metrics {
        let m = catalog::find(name);
        let spread = outcome
            .spreads
            .iter()
            .find(|s| s.0 == *name)
            .map_or(String::new(), |(_, min, max, n)| {
                format!("{n} [{min:.6} .. {max:.6}]")
            });
        println!(
            "{:<34} {:>16.6} {:<9} {:<7} {:>6}  {}",
            name,
            value,
            m.map_or("", |m| m.unit),
            m.map_or("", |m| m.better.as_str()),
            m.and_then(|m| m.bound)
                .map_or(String::from("-"), |b| format!("{:.0}%", b * 100.0)),
            spread
        );
    }
    println!(
        "simulations attempted {} failed {} correct {}",
        outcome.attempted,
        outcome.failed,
        outcome.correct()
    );
    for p in &outcome.problems {
        println!("PROBLEM: {p}");
    }
}

fn main() -> ExitCode {
    let Some(args) = parse_args() else {
        report::list();
        return ExitCode::SUCCESS;
    };
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: use run.sh, or cargo run --release");
        return ExitCode::from(2);
    }
    if args.workload == "all" {
        return report::run_all(&args);
    }
    let Some(w) = workloads::find(&args.workload) else {
        eprintln!("unknown workload: {}", args.workload);
        usage();
    };
    let outcome = if args.trace {
        measure::per_layer(w, args.seed, args.seconds)
    } else {
        measure::end_to_end(w, args.seed, args.seconds)
    };
    print_table(w, &args, &outcome);
    if let Some(data) = &outcome.trace {
        match tracefile::write(w.name, args.seed, data) {
            Ok(Some(path)) => println!("trace written to {}", path.display()),
            Ok(None) => println!("CARGO_TARGET_DIR not set: trace file not written"),
            Err(e) => eprintln!("could not write the trace file: {e}"),
        }
    }
    println!("{}", result_json(&outcome));
    if args.check && !outcome.correct() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{run_instance, Keep};
    use dcrd_core::DcrdConfig;
    use dcrd_experiments::scenario::ScenarioBuilder;
    use std::collections::BTreeSet;
    use std::time::Instant;

    fn names(v: &json::Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(json::Value::as_array)
            .expect("array")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(json::Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    /// `BENCHMARK.json` and the code's tables list exactly the same
    /// workloads and metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("root BENCHMARK.json");
        let v = json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            names(&v, "workloads"),
            workloads::WORKLOADS
                .iter()
                .map(|w| w.name)
                .collect::<Vec<_>>()
        );
        for (key, table) in [
            ("end_to_end", &catalog::END_TO_END[..]),
            ("per_layer", &catalog::PER_LAYER[..]),
        ] {
            assert_eq!(
                names(&v, key),
                table.iter().map(|m| m.name).collect::<Vec<_>>(),
                "{key} names"
            );
            for (entry, m) in v
                .get(key)
                .and_then(json::Value::as_array)
                .expect("array")
                .iter()
                .zip(table)
            {
                assert_eq!(
                    entry.get("unit").and_then(json::Value::as_str),
                    Some(m.unit),
                    "{}",
                    m.name
                );
                assert_eq!(
                    entry.get("better").and_then(json::Value::as_str),
                    Some(m.better.as_str()),
                    "{}",
                    m.name
                );
                assert_eq!(
                    entry.get("bound").and_then(json::Value::as_f64),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
        let paths = v
            .get("paths")
            .and_then(json::Value::as_array)
            .expect("paths");
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].as_str(), Some("benchmark"));
        let whys = v
            .get("workloads")
            .and_then(json::Value::as_array)
            .expect("workloads");
        for (entry, w) in whys.iter().zip(&workloads::WORKLOADS) {
            let why = entry.get("why").and_then(json::Value::as_str).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{}", w.name);
        }
    }

    fn tiny() -> dcrd_experiments::scenario::Scenario {
        ScenarioBuilder::new()
            .nodes(12)
            .degree(4)
            .topics(4)
            .failure_probability(0.05)
            .loss_rate(0.01)
            .dcrd(DcrdConfig::chaos_hardened())
            .audit(true)
            .duration_secs(20)
            .seed(7)
            .build()
    }

    /// `Timed` is transparent in both flag settings: same counters and same
    /// per-pair outcomes as the bare strategy driven by the experiments
    /// runner.
    #[test]
    fn timed_wrapper_does_not_change_the_simulation() {
        let scenario = tiny();
        let keep = Keep {
            samples: true,
            layers: true,
        };
        let untraced = run_instance::<false>(&scenario, 0, true, keep, Instant::now());
        let traced = run_instance::<true>(&scenario, 0, true, keep, Instant::now());
        assert!(
            untraced.gate_failures.is_empty(),
            "{:?}",
            untraced.gate_failures
        );
        // Allocation counts are process-wide and other tests allocate
        // concurrently; everything else must match exactly.
        let strip = |e: &instance::Exact| instance::Exact {
            setup_allocs: 0,
            loop_allocs: 0,
            ..e.clone()
        };
        assert_eq!(strip(&untraced.exact), strip(&traced.exact));
        assert_eq!(untraced.delays_us, traced.delays_us);
        assert_eq!(
            untraced.trace.as_ref().map(dcrd_pubsub::Trace::digest),
            traced.trace.as_ref().map(dcrd_pubsub::Trace::digest)
        );
        assert!(untraced.observed.callbacks.iter().all(|c| c.count == 0));
        assert!(traced.observed.callbacks[timed::Callback::Packet as usize].count > 0);
        assert!(traced.observed.actions > 0);

        // The bare strategy, through the experiments runner itself.
        let (metrics, digest) =
            dcrd_experiments::run_traced(&scenario, dcrd_experiments::StrategyKind::Dcrd, 0);
        assert_eq!(
            Some(digest),
            untraced.trace.as_ref().map(dcrd_pubsub::Trace::digest)
        );
        assert_eq!(metrics.pairs(), untraced.exact.pairs);
        assert_eq!(
            (metrics.delivery_ratio() * metrics.pairs() as f64).round() as u64,
            untraced.exact.delivered_pairs
        );
    }

    #[test]
    fn result_line_parses_back_with_every_catalog_metric() {
        let outcome = Outcome {
            metrics: catalog::END_TO_END
                .iter()
                .enumerate()
                .map(|(i, m)| (m.name, 0.125 + i as f64))
                .collect(),
            attempted: 8,
            failed: 0,
            problems: Vec::new(),
            spreads: Vec::new(),
            trace: None,
        };
        let line = result_json(&outcome);
        assert!(!line.contains('\n'));
        let v = json::parse(&line).expect("result line parses");
        assert_eq!(v.get("correct").and_then(json::Value::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(json::Value::as_f64), Some(8.0));
        let keys: BTreeSet<&str> = v
            .as_object()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            BTreeSet::from(["attempted", "correct", "failed", "metrics"])
        );
        let metrics = v
            .get("metrics")
            .and_then(json::Value::as_object)
            .expect("metrics");
        assert_eq!(metrics.len(), catalog::END_TO_END.len());
        for (i, m) in catalog::END_TO_END.iter().enumerate() {
            let entry = &metrics[m.name];
            assert_eq!(
                entry.get("value").and_then(json::Value::as_f64),
                Some(0.125 + i as f64)
            );
            assert_eq!(
                entry.get("unit").and_then(json::Value::as_str),
                Some(m.unit)
            );
        }
    }
}
