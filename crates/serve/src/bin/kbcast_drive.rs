//! The workload driver binary: generates (or replays) heavy-traffic
//! session scripts, runs them against `kbcast-serve` processes (one
//! child per session, in parallel) or an embedded service, and prints a
//! delivery/throughput/latency report.
//!
//! ```text
//! kbcast-drive --sessions 4 --topology 'grid(4x8)' --protocol stream-seq \
//!              --seed 1 --lambda 0.025 --window 4000000 \
//!              --flip 'uniform:rate=0.02@100000+200000' --verify --compare
//! ```
//!
//! Exits non-zero unless every session delivered every packet with zero
//! verification violations (and, under `--compare`, the child-process
//! outcomes matched the in-process ones exactly).

use std::path::PathBuf;
use std::process::ExitCode;

use kbcast_serve::driver::{
    drive_sessions, parse_flip, read_script, write_script, DriveReport, FaultFlip, WorkloadSpec,
};

struct Args {
    sessions: usize,
    topology: String,
    protocol: String,
    seed: u64,
    lambda: f64,
    window: u64,
    flip: Option<FaultFlip>,
    drain_rounds: u64,
    verify: bool,
    batch: usize,
    churn: Option<String>,
    in_process: bool,
    serve: Option<PathBuf>,
    replay: Option<PathBuf>,
    record: Option<PathBuf>,
    compare: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            sessions: 1,
            topology: "grid(4x8)".into(),
            protocol: "stream-seq".into(),
            seed: 1,
            lambda: 0.02,
            window: 50_000,
            flip: None,
            drain_rounds: 20_000_000,
            verify: false,
            batch: 512,
            churn: None,
            in_process: false,
            serve: None,
            replay: None,
            record: None,
            compare: false,
        }
    }
}

fn usage() -> &'static str {
    "kbcast-drive: replay heavy traffic against kbcast-serve sessions\n\
     \n\
     workload:    --sessions N --topology SPEC --protocol stream-seq\n\
     \x20            --seed S --lambda PKT_PER_ROUND --window ROUNDS\n\
     \x20            [--flip FAULTSPEC@ROUND[+RECOVER_ROUNDS]] [--verify] [--batch N]\n\
     \x20            [--drain-rounds R] [--churn CHURNSPEC]\n\
     transport:   [--serve PATH_TO_KBCAST_SERVE] [--in-process] [--compare]\n\
     record/replay: [--record FILE] [--replay FILE]\n"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n\n{}", usage()))
        };
        match flag.as_str() {
            "--sessions" => {
                args.sessions = val("--sessions")?
                    .parse()
                    .map_err(|e| format!("--sessions: {e}"))?
            }
            "--topology" => args.topology = val("--topology")?,
            "--protocol" => args.protocol = val("--protocol")?,
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--lambda" => {
                args.lambda = val("--lambda")?
                    .parse()
                    .map_err(|e| format!("--lambda: {e}"))?
            }
            "--window" => {
                args.window = val("--window")?
                    .parse()
                    .map_err(|e| format!("--window: {e}"))?
            }
            "--flip" => args.flip = Some(parse_flip(&val("--flip")?)?),
            "--drain-rounds" => {
                args.drain_rounds = val("--drain-rounds")?
                    .parse()
                    .map_err(|e| format!("--drain-rounds: {e}"))?;
            }
            "--verify" => args.verify = true,
            "--churn" => args.churn = Some(val("--churn")?),
            "--batch" => {
                args.batch = val("--batch")?
                    .parse()
                    .map_err(|e| format!("--batch: {e}"))?
            }
            "--in-process" => args.in_process = true,
            "--serve" => args.serve = Some(PathBuf::from(val("--serve")?)),
            "--replay" => args.replay = Some(PathBuf::from(val("--replay")?)),
            "--record" => args.record = Some(PathBuf::from(val("--record")?)),
            "--compare" => args.compare = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}\n\n{}", usage())),
        }
    }
    Ok(args)
}

/// The `kbcast-serve` binary next to this one (the cargo layout).
fn sibling_serve() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me.parent().ok_or("current_exe has no parent directory")?;
    let candidate = dir.join(format!("kbcast-serve{}", std::env::consts::EXE_SUFFIX));
    if candidate.exists() {
        Ok(candidate)
    } else {
        Err(format!(
            "no kbcast-serve next to the driver ({}); pass --serve PATH or --in-process",
            candidate.display()
        ))
    }
}

fn build_scripts(args: &Args) -> Result<Vec<Vec<String>>, String> {
    if let Some(path) = &args.replay {
        let script = read_script(path)?;
        if script.is_empty() {
            return Err(format!("{}: empty script", path.display()));
        }
        // A recorded session replays verbatim; --sessions replicates it.
        return Ok(vec![script; args.sessions.max(1)]);
    }
    (0..args.sessions.max(1))
        .map(|i| {
            WorkloadSpec {
                topology: args.topology.clone(),
                protocol: args.protocol.clone(),
                seed: args.seed.wrapping_add(i as u64),
                lambda: args.lambda,
                window: args.window,
                flip: args.flip.clone(),
                drain_rounds: args.drain_rounds,
                verify: args.verify,
                batch: args.batch,
                churn: args.churn.clone(),
            }
            .script()
            .map_err(|e| format!("session {i}: {e}"))
        })
        .collect()
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let scripts = build_scripts(&args)?;
    if let Some(path) = &args.record {
        write_script(path, &scripts[0])?;
        eprintln!("recorded session 0 script to {}", path.display());
    }
    let started = std::time::Instant::now();
    let report: DriveReport;
    let mut compared = true;
    if args.in_process {
        report = drive_sessions(&scripts, None)?;
    } else {
        let serve = match &args.serve {
            Some(p) => p.clone(),
            None => sibling_serve()?,
        };
        report = drive_sessions(&scripts, Some(&serve))?;
        if args.compare {
            let reference = drive_sessions(&scripts, None)?;
            compared = reference == report;
            if compared {
                println!(
                    "compare: child-process outcomes match the in-process run exactly \
                     ({} sessions)",
                    report.sessions.len()
                );
            } else {
                eprintln!("compare: MISMATCH between child-process and in-process outcomes");
                eprintln!("--- child ---\n{}", report.to_text());
                eprintln!("--- in-process ---\n{}", reference.to_text());
            }
        }
    }
    let elapsed = started.elapsed();
    print!("{}", report.to_text());
    let injected = report.packets();
    #[allow(clippy::cast_precision_loss)]
    let rate = injected as f64 / elapsed.as_secs_f64().max(1e-9);
    // Wall-clock figures go to stderr, so stdout (the report) is a
    // deterministic function of the arguments.
    eprintln!(
        "wall: {:.2}s for {injected} packets across {} sessions ({rate:.0} pkt/s)",
        elapsed.as_secs_f64(),
        report.sessions.len()
    );
    Ok(report.all_delivered() && compared)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("FAILED: incomplete delivery, violations, or a compare mismatch");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("kbcast-drive: {e}");
            ExitCode::FAILURE
        }
    }
}
