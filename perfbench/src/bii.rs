//! `bii-udg`: the Bar-Yehuda–Israeli–Itai baseline flooding k = 2
//! packets over a 20 000-node unit-disk graph (average degree ≈ 20),
//! driven directly on the engine as `perf_smoke` does: the all-pairs
//! diameter probe is infeasible at this size, so the protocol gets the
//! `2 × eccentricity(0)` bound.

use std::time::Instant;

use kbcast::baseline::{BiiConfig, BiiNode};
use kbcast::runner::Workload;
use protocols::decay::Decay;
use radio_net::engine::{Engine, Node};
use radio_net::graph::{Graph, NodeId};
use radio_net::rng;
use radio_net::session::NoopObserver;
use radio_net::stats::SimStats;
use radio_net::topology::Topology;

use crate::clock::{RefClock, Stamp};
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::timed::{run_timed, take_counters, NodeCounters, Overhead, StepLog, TimedNode};
use crate::{
    col, engine_layers, gf2_probe, log2_ceil, p50, payload_len, run_units, Args, EngineRecord, Run,
    MIN_UNITS,
};

/// Nodes of the unit-disk graph.
pub const N: usize = 20_000;
/// Packets, all at node 0.
pub const K: usize = 2;
/// BII epochs per packet (as `perf_smoke`'s million-node scenario).
pub const EPOCHS_PER_PACKET: usize = 24;
/// Rounds per `run_until_all_done` call of an untraced session, so the
/// reference clock can walk between calls (about every 50–150 ms).
pub const SEGMENT: u64 = 64;

/// The unit-disk radius giving an average degree of about 20.
#[must_use]
pub fn topology() -> Topology {
    #[allow(clippy::cast_precision_loss)]
    let radius = (20.0 / (std::f64::consts::PI * N as f64)).sqrt();
    Topology::UnitDisk { n: N, radius }
}

/// Protocol parameters probed from the graph.
struct Params {
    cfg: BiiConfig,
    cap: u64,
}

fn probe(graph: &Graph) -> Result<Params, String> {
    let ecc = graph
        .eccentricity(NodeId::new(0))
        .ok_or("unit-disk graph is disconnected")?;
    let diameter = 2 * ecc as u64;
    let cfg = BiiConfig {
        epochs_per_packet: EPOCHS_PER_PACKET,
        delta_bound: graph.max_degree().max(1),
    };
    // `perf_smoke`'s cap: 8× the expected (k + D) · epochs · |epoch|.
    let epoch = Decay::new(cfg.delta_bound).epoch_len() as u64;
    let cap = 8 * ((K as u64 + diameter + 2) * EPOCHS_PER_PACKET as u64 * epoch) + 64;
    Ok(Params { cfg, cap })
}

fn nodes(cfg: BiiConfig, workload: &Workload, seed: u64) -> Vec<BiiNode> {
    (0..workload.len())
        .map(|i| BiiNode::with_target(cfg, workload.packets_of(i), rng::stream(seed, i as u64), K))
        .collect()
}

/// The source, the only node awake at round 0.
fn awake() -> Vec<NodeId> {
    vec![NodeId::new(0)]
}

/// Rounds, channel statistics and completion of one session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Outcome {
    rounds: u64,
    stats: SimStats,
    all_done: bool,
}

fn outcome<N: Node>(engine: &Engine<N>, all_done: bool) -> Outcome {
    Outcome {
        rounds: engine.round(),
        stats: *engine.stats(),
        all_done,
    }
}

/// Builds the session's engine, timed as one block.
fn setup(workload: &Workload, seed: u64) -> Result<(Engine<BiiNode>, u64, Stamp), String> {
    let (built, stamp) = Stamp::measure(|| -> Result<_, String> {
        let graph = topology().build(seed).map_err(|e| e.to_string())?;
        let p = probe(&graph)?;
        let nodes = nodes(p.cfg, workload, seed);
        let engine = Engine::new(graph, nodes, awake()).map_err(|e| e.to_string())?;
        Ok((engine, p.cap))
    });
    let (engine, cap) = built?;
    Ok((engine, cap, stamp))
}

/// `run_until_all_done(cap)` in [`SEGMENT`]-round calls — the same
/// rounds, since each call first checks the stop rule — timing each
/// call and letting the clock walk between them.
fn run_segmented(
    engine: &mut Engine<BiiNode>,
    cap: u64,
    clock: &mut RefClock,
) -> (Outcome, Vec<Stamp>) {
    let mut segments = Vec::new();
    loop {
        let budget = (cap - engine.round()).min(SEGMENT);
        let (done, stamp) = Stamp::measure(|| engine.run_until_all_done(budget));
        segments.push(stamp);
        clock.maybe_tick();
        if done || engine.round() >= cap {
            return (outcome(engine, done), segments);
        }
    }
}

fn check(report: &mut Report, unit: usize, out: &Outcome) {
    report.attempted += 1;
    if !out.all_done {
        report.failed += 1;
        report.note(format!(
            "unit {unit}: hit the round cap at {} rounds",
            out.rounds
        ));
    }
}

/// Runs the workload.
///
/// # Errors
///
/// A setup failure or a metric without enough samples.
pub fn run(args: &Args) -> Result<Report, String> {
    let workload = Workload::single_source(N, 0, K);
    if args.trace {
        traced(args, &workload)
    } else {
        untraced(args, &workload)
    }
}

struct Unit {
    setup: Stamp,
    segments: Vec<Stamp>,
    out: Outcome,
}

fn untraced(args: &Args, workload: &Workload) -> Result<Report, String> {
    let mut clock = RefClock::new();
    let Run {
        units,
        warmup_rss_mb,
    } = run_units(args.seed, args.seconds, &mut clock, |_, seed, clock| {
        let (mut engine, cap, setup) = setup(workload, seed)?;
        clock.maybe_tick();
        let (out, segments) = run_segmented(&mut engine, cap, clock);
        Ok(Unit {
            setup,
            segments,
            out,
        })
    })?;
    let mut report = Report::default();
    for (i, u) in units.iter().enumerate() {
        check(&mut report, i, &u.out);
    }
    let session_s = |u: &Unit| -> f64 { u.segments.iter().map(|&s| clock.scaled(s)).sum() };
    #[allow(clippy::cast_precision_loss)]
    {
        report.set("setup_s", p50(&col(&units, |u| clock.scaled(u.setup)))?);
        report.set("session_s_p50", p50(&col(&units, session_s))?);
        report.set(
            "rounds_per_s",
            p50(&col(&units, |u| u.out.rounds as f64 / session_s(u)))?,
        );
        report.set("pkt_per_s", p50(&col(&units, |u| K as f64 / session_s(u)))?);
        let rounds: u64 = units[..MIN_UNITS].iter().map(|u| u.out.rounds).sum();
        report.set("rounds_per_packet", rounds as f64 / (MIN_UNITS * K) as f64);
    }
    report.set("peak_rss_mb", warmup_rss_mb);
    report.note(clock.note());
    report.note(format!(
        "sessions: {} (simulated metrics over the first {MIN_UNITS})",
        units.len()
    ));
    report.zero_rest(END_TO_END);
    Ok(report)
}

/// One traced unit: the untraced session, then the timed one on the
/// same seed.
struct TracedUnit {
    plain: Outcome,
    plain_segments: Vec<Stamp>,
    timed: Outcome,
    timed_s: Stamp,
    log: StepLog,
    counters: NodeCounters,
}

fn traced(args: &Args, workload: &Workload) -> Result<Report, String> {
    let ov = Overhead::calibrate();
    let mut clock = RefClock::new();
    let mut tracer = Tracer::new();
    let units = run_units(args.seed, args.seconds, &mut clock, |unit, seed, clock| {
        let (mut engine, cap, _) = setup(workload, seed)?;
        let (plain, plain_segments) = run_segmented(&mut engine, cap, clock);
        drop(engine);

        let mut discard = Tracer::new();
        let tr = if unit.is_some() {
            &mut tracer
        } else {
            &mut discard
        };
        tr.set_unit(unit.unwrap_or(0));
        let root = tr.open("unit");
        let graph = tr.time("topology.build", || topology().build(seed));
        let graph = graph.map_err(|e| e.to_string())?;
        let p = tr.time("graph.probe", || probe(&graph))?;
        let nodes: Vec<TimedNode<BiiNode>> = tr.time("protocol.build", || {
            nodes(p.cfg, workload, seed)
                .into_iter()
                .map(TimedNode)
                .collect()
        });
        let engine = tr.time("engine.new", || Engine::new(graph, nodes, awake()));
        let mut engine = engine.map_err(|e| e.to_string())?;
        take_counters();
        let mut log = StepLog::default();
        let span = tr.open("session");
        let start = Instant::now();
        let end = run_timed(&mut engine, p.cap, &mut NoopObserver, &mut log);
        let timed_s = Stamp::since(start);
        if let (Some(start), Some(stop)) = (log.start, log.end) {
            tr.record("engine.run", start, stop);
        }
        tr.close(span);
        tr.close(root);
        Ok(TracedUnit {
            plain,
            plain_segments,
            timed: outcome(&engine, end.completed),
            timed_s,
            log,
            counters: take_counters(),
        })
    })?
    .units;

    let mut report = Report::default();
    for (i, u) in units.iter().enumerate() {
        check(&mut report, i, &u.plain);
        if u.plain != u.timed {
            report.mismatch = true;
            report.note(format!(
                "unit {i}: traced session differs from the untraced one: {:?} vs {:?}",
                u.timed, u.plain
            ));
        }
    }
    crate::setup_layers(&mut report, &tracer, &clock)?;
    let records: Vec<EngineRecord<'_>> = units
        .iter()
        .map(|u| EngineRecord {
            log: &u.log,
            counters: &u.counters,
            stats: u.plain.stats,
            scale: clock.scale_at(u.timed_s.end),
        })
        .collect();
    let attribution = engine_layers(&mut report, &records, N, &ov)?;
    report.note(attribution);
    crate::trace_overhead(
        &mut report,
        &col(&units, |u| {
            u.plain_segments.iter().map(|&s| clock.scaled(s)).sum()
        }),
        &col(&units, |u| clock.scaled(u.timed_s)),
    )?;

    gf2_probe(
        &mut report,
        &mut clock,
        log2_ceil(N),
        payload_len(workload),
        args.seed,
    )?;
    report.note(clock.note());
    report.note(format!(
        "sessions: {}; spans: {}",
        units.len(),
        tracer.spans().len()
    ));
    crate::write_spans(&tracer, args, &mut report);
    report.zero_rest(PER_LAYER);
    Ok(report)
}
