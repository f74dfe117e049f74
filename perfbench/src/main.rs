//! End-to-end and per-layer benchmark of the threshold-circuit workspace.
//!
//! ```text
//! perfbench --workload <trace_oracle|matmul_products|session_stream>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` cold-starts the workload several times, serves a closed
//! loop from one client thread and prints every end-to-end metric;
//! `--trace 1` runs one cold start with spans around each layer's public
//! calls and prints every per-layer metric. The last line of standard
//! output is the JSON result. Every answer is checked against an
//! independent reference; any mismatch or verifier error makes the run
//! exit with code 1. See `perfbench/README.md`.

mod harness;
mod matmul;
mod mem;
mod oracle;
mod probe;
mod report;
mod stream;
mod tracer;

use harness::{Outcome, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["trace_oracle", "matmul_products", "session_stream"];

/// The `k`-th value of the seed's stream (SplitMix64 finaliser), so every
/// generated input depends on the seed and its position only.
pub fn mix(seed: u64, k: usize) -> u64 {
    let mut z = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(
        (k as u64)
            .wrapping_add(1)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run<W: Workload>(w: &W, args: &Args) -> Result<Outcome, String> {
    let out = PathBuf::from(".bench_out");
    let stem = format!("{}-seed{}", args.workload, args.seed);
    if args.trace {
        harness::run_traced(w, args.seconds, &out.join(format!("{stem}-spans.jsonl")))
    } else {
        harness::run_untraced(w, args.seconds, &out.join(format!("{stem}-tuner.jsonl")))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "trace_oracle" => run(&oracle::TraceOracle::new(args.seed), &args),
        "matmul_products" => run(&matmul::MatmulProducts::new(args.seed), &args),
        _ => stream::SessionStream::new(args.seed).and_then(|w| run(&w, &args)),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let correct = outcome.failed == 0 && outcome.verify_errors == 0;
    println!(
        "{}",
        report::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} wrong answers of {}, {} verifier errors",
            outcome.failed, outcome.attempted, outcome.verify_errors
        );
        ExitCode::FAILURE
    }
}
