//! CI smoke driver for the deterministic fuzzers.
//!
//! ```text
//! fuzz-smoke [scripts|callbacks|all] [iterations] [seed]
//! ```
//!
//! Runs a budgeted pass of the selected fuzzer(s) and prints the seed and
//! the tally; any oracle breach panics with the reproducing `(seed,
//! index)` pair, so a red CI job is a one-line repro. Defaults: `all`,
//! a CI-sized budget, seed 1.

use dcrd_fuzz_harness::{run_callback_fuzz, run_script_fuzz};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mode = args.get(1).map_or("all", String::as_str);
    let iterations: u64 = args
        .get(2)
        .map(|s| s.parse().expect("iterations must be a number"))
        .unwrap_or(0);
    let seed: u64 = args
        .get(3)
        .map(|s| s.parse().expect("seed must be a number"))
        .unwrap_or(1);

    let pick = |default: u64| if iterations == 0 { default } else { iterations };
    match mode {
        "scripts" => {
            let n = pick(200);
            println!("script-fuzz: seed={seed} scripts={n}");
            println!("  {}", run_script_fuzz(seed, n));
        }
        "callbacks" => {
            let n = pick(500);
            println!("callback-fuzz: seed={seed} scripts={n}");
            println!("  {}", run_callback_fuzz(seed, n, 128));
        }
        "all" => {
            let s = pick(100).min(1_000);
            println!("script-fuzz: seed={seed} scripts={s}");
            println!("  {}", run_script_fuzz(seed, s));
            let c = pick(200).min(2_000);
            println!("callback-fuzz: seed={seed} scripts={c}");
            println!("  {}", run_callback_fuzz(seed, c, 128));
        }
        other => {
            eprintln!("unknown mode {other:?}; use scripts|callbacks|all");
            std::process::exit(2);
        }
    }
    println!("fuzz-smoke: all oracles held");
}
