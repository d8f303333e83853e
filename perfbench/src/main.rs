//! Benchmark entry point:
//!
//! ```text
//! kbcast-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints notes, then one JSON result line. Exits 0 only when every
//! output check passed; 1 on a failed check or a benchmark error; 2 on
//! bad arguments.

use std::process::ExitCode;

use kbcast_perfbench::report::{Report, END_TO_END, PER_LAYER, WORKLOADS};
use kbcast_perfbench::{bii, oneshot, serve, Args};

const USAGE: &str =
    "usage: kbcast-perfbench --workload <oneshot-coded|bii-udg|serve-stream|oneshot-checked> \
                     --seed <u64> --seconds <positive number> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "oneshot-coded" => oneshot::run(args, false),
        "oneshot-checked" => oneshot::run(args, true),
        "bii-udg" => bii::run(args),
        "serve-stream" => serve::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let registry = if args.trace { PER_LAYER } else { END_TO_END };
    let line = match report.to_json(registry) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    #[allow(clippy::cast_precision_loss)]
    let fail_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "# {} seed {} trace {}: attempted {}, failed {}, fail_frac {fail_frac}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        report.attempted,
        report.failed
    );
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
