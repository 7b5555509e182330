//! The repository benchmark: end-to-end and per-layer timings of the
//! GhostBusters reproduction on three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-cold|serve-hot|fleet-write --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a human-readable report (run facts, notes, every metric with
//! its unit), then, as the last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer ones with `--trace 1`. See `README.md`.

mod facts;
mod fleet_write;
mod gen;
mod load;
mod oracle;
mod report;
mod serve_hot;
mod serving;
mod spans;
mod stats;
mod sweep_cold;

use report::{result_line, Outcome, END_TO_END, PER_LAYER};
use std::process::ExitCode;

/// The workloads, with why each was chosen.
const WORKLOADS: [(&str, &str); 3] = [
    (
        "sweep-cold",
        "the paper-reproduction path: every declared sweep at small on a fresh \
         translation service, in process; bypasses serve, router, memo and \
         store",
    ),
    (
        "serve-hot",
        "the read path: warmed run/analyze/sweep requests from 2 closed-loop \
         clients to one daemon over loopback; transport, codec, queueing and \
         memo hits",
    ),
    (
        "fleet-write",
        "the write path: upload, run and analyze fresh program variants through \
         a router over 2 daemons; store, replication, router hop, cold \
         translate",
    ),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.iter().any(|(name, _)| *name == workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        return Err(format!("unknown workload {workload} (expected one of {})", names.join(", ")));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "sweep-cold" => Ok(sweep_cold::run(args.seed, args.seconds, args.trace)),
        "serve-hot" => serve_hot::run(args.seed, args.seconds, args.trace),
        "fleet-write" => fleet_write::run(args.seed, args.seconds, args.trace),
        other => unreachable!("workload {other} was validated"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("perfbench: {}: {error}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let why = WORKLOADS.iter().find(|(name, _)| *name == args.workload).map_or("", |(_, why)| why);
    println!(
        "workload {} (seed {}, {} s, trace {}): {why}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("facts: {}", facts::collect(args.seed));
    for note in &outcome.notes {
        println!("note: {note}");
    }
    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in catalogue {
        println!("{name:>34} = {:.6} {unit}", outcome.metrics.get(name).copied().unwrap_or(0.0));
    }
    println!("operations: {} attempted, {} failed", outcome.attempted, outcome.failed);
    println!("{}", result_line(&outcome, catalogue));
    ExitCode::SUCCESS
}
