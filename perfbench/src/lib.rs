//! # perfbench
//!
//! One measured pass of one benchmark workload. `run.py` (next to this
//! crate) builds the two binaries, starts a fresh process for every
//! pass, and folds the passes of one run into the result line the
//! benchmark contract asks for. This crate never reaches into the
//! program: every number comes from timing calls into public APIs,
//! from counters the program already exports, or from `/proc/self`.
//!
//! * [`serve`] — `serve-read-mostly` and `serve-write-durable`: a live
//!   60-node reactor cluster driven closed-loop by two clients.
//! * [`sim`] — `sim-zipf-100k`: the epoch engine at 10⁵ partitions.
//! * [`counters`] — `/proc/self` and allocator counters (traced passes).
//! * [`report`] — metrics, percentiles, bench spans and the pass line.

#![warn(missing_docs)]

pub mod counters;
pub mod report;
pub mod serve;
pub mod sim;

use std::path::PathBuf;
use std::process::ExitCode;

/// What one process was asked to do.
#[derive(Debug, Clone)]
pub struct PassArgs {
    /// Workload name (see [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Traced pass: record spans, counters and layer replays.
    pub trace: bool,
    /// Ops the untraced pass of this run completed; a traced serve pass
    /// sizes its span sampling rate from it.
    pub expect_ops: u64,
    /// Override the workload's telemetry setting (`None` keeps it).
    pub telemetry: Option<bool>,
    /// Directory for scratch data (WAL) and trace files.
    pub out: PathBuf,
    /// Only time cluster start-up (the `setup_s` probe), then exit.
    pub probe: bool,
}

/// The workloads this crate can run.
pub const WORKLOADS: [&str; 3] = ["serve-read-mostly", "serve-write-durable", "sim-zipf-100k"];

fn parse_args() -> Result<PassArgs, String> {
    let mut args = PassArgs {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        expect_ops: 0,
        telemetry: None,
        out: PathBuf::from("perfbench/out"),
        probe: false,
    };
    let mut it = std::env::args().skip(1);
    match it.next().as_deref() {
        Some("run") => {}
        Some("probe") => args.probe = true,
        other => return Err(format!("expected `run` or `probe`, got {other:?}")),
    }
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--expect-ops" => args.expect_ops = value.parse().map_err(|e| bad(&e))?,
            "--telemetry" => args.telemetry = Some(value == "on"),
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}; expected one of {WORKLOADS:?}", args.workload));
    }
    if args.seconds.is_nan() || args.seconds < 1.0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// Entry point shared by both binaries. Prints the pass line on
/// success; on a failed correctness gate prints the reason to stderr
/// and exits nonzero without a result.
pub fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let outcome = match args.workload.as_str() {
        "sim-zipf-100k" if args.probe => Err("sim-zipf-100k times its set-up in `run`".into()),
        "sim-zipf-100k" => sim::run(&args),
        w if args.probe => serve::probe(&args, serve::Shape::named(w)),
        w => serve::run(&args, serve::Shape::named(w)),
    };
    match outcome {
        Ok(pass) => {
            println!("{}", pass.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} seed {}: FAILED: {e}", args.workload, args.seed);
            ExitCode::FAILURE
        }
    }
}
