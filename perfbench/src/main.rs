//! The benchmark command:
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace 0|1]
//! ```
//!
//! Prints one JSON object as its last line; exits 1 when the run cannot
//! be made and 2 on bad arguments.

use std::process::ExitCode;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2017,
        seconds: 10.0,
        trace: false,
    };
    // incam-lint: allow(env-read) — the benchmark's command-line arguments, not ambient configuration
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!(
            "--workload is required (one of: {})",
            perfbench::WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> [--seed <n>] [--seconds <n>] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let result = perfbench::run(&args.workload, args.seed, args.seconds, args.trace)
        .and_then(|report| report.to_json());
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
