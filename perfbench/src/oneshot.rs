//! `oneshot-coded` and `oneshot-checked`: the paper's four-stage coded
//! protocol through the session driver
//! (`kbcast::session::run_protocol_on_graph`), bare or with the online
//! verifiers and the round trace on. Both run the same sessions for a
//! given seed.

use kbcast::runner::{KbcastMeta, RunOptions, StageRounds, Workload};
use kbcast::session::{run_protocol_on_graph, BroadcastProtocol, NetParams, SessionReport};
use kbcast::CodedProtocol;
use radio_net::engine::Engine;
use radio_net::error::Error;
use radio_net::graph::Graph;
use radio_net::stats::SimStats;
use radio_net::topology::Topology;

use crate::clock::{RefClock, Stamp};
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::stats::mean;
use crate::timed::{take_counters, NodeCounters, Overhead, StepLog, Timed};
use crate::{
    col, engine_layers, gf2_probe, log2_ceil, p50, payload_len, run_units, Args, EngineRecord, Run,
    MIN_UNITS,
};

/// The network: a 16×16 grid (n = 256, D = 30, Δ = 4).
pub const TOPOLOGY: Topology = Topology::Grid2d { rows: 16, cols: 16 };
/// Packets per session, placed round-robin over the nodes.
pub const K: usize = 64;

/// The workload's session options.
#[must_use]
pub fn options(checked: bool) -> RunOptions {
    RunOptions {
        verify: checked,
        trace: checked,
        ..RunOptions::default()
    }
}

/// What a session produced, for output checks and cross-checks.
#[derive(Clone, Debug, PartialEq)]
struct Outcome {
    rounds: u64,
    success: bool,
    stats: SimStats,
    meta: KbcastMeta,
}

fn outcome(res: Result<SessionReport<KbcastMeta>, Error>) -> Result<Outcome, String> {
    res.map(|r| Outcome {
        rounds: r.rounds_total,
        success: r.success,
        stats: r.stats,
        meta: r.meta,
    })
    .map_err(|e| e.to_string())
}

/// One session through the driver, timed.
fn session<P: BroadcastProtocol<Meta = KbcastMeta>>(
    protocol: &P,
    graph: Graph,
    workload: &Workload,
    seed: u64,
    opts: RunOptions,
) -> (Result<Outcome, String>, Stamp) {
    let (res, stamp) =
        Stamp::measure(|| run_protocol_on_graph(protocol, graph, workload, seed, opts));
    (outcome(res), stamp)
}

/// Inputs to a ready session — topology, graph probes, nodes, engine —
/// timed as one block. Returns the graph for the session.
fn setup(workload: &Workload, seed: u64) -> Result<(Graph, Stamp), String> {
    let (engine, stamp) = Stamp::measure(|| -> Result<_, String> {
        let graph = TOPOLOGY.build(seed).map_err(|e| e.to_string())?;
        let net = NetParams::of_graph(&graph);
        let (nodes, awake) = CodedProtocol::default().build(&net, workload, seed);
        Engine::new(graph, nodes, awake).map_err(|e| e.to_string())
    });
    Ok((engine?.graph().clone(), stamp))
}

/// Counts a failed output check; `true` when the session passed.
fn check(report: &mut Report, unit: usize, out: &Result<Outcome, String>) -> bool {
    report.attempted += 1;
    let why = match out {
        Ok(o) if o.success => return true,
        Ok(o) => format!("session ended without success at round {}", o.rounds),
        Err(e) => e.clone(),
    };
    report.failed += 1;
    report.note(format!("unit {unit}: {why}"));
    false
}

/// Runs the workload.
///
/// # Errors
///
/// A setup failure or a metric without enough samples.
pub fn run(args: &Args, checked: bool) -> Result<Report, String> {
    let n = TOPOLOGY.build(0).map_err(|e| e.to_string())?.len();
    let workload = Workload::round_robin(n, K);
    if args.trace {
        traced(args, checked, &workload)
    } else {
        untraced(args, checked, &workload)
    }
}

struct Unit {
    setup: Stamp,
    session: Stamp,
    out: Result<Outcome, String>,
}

fn untraced(args: &Args, checked: bool, workload: &Workload) -> Result<Report, String> {
    let mut clock = RefClock::new();
    let Run {
        units,
        warmup_rss_mb,
    } = run_units(args.seed, args.seconds, &mut clock, |_, seed, _| {
        let (graph, setup) = setup(workload, seed)?;
        let (out, session) = session(
            &CodedProtocol::default(),
            graph,
            workload,
            seed,
            options(checked),
        );
        Ok(Unit {
            setup,
            session,
            out,
        })
    })?;
    let mut report = Report::default();
    for (i, u) in units.iter().enumerate() {
        check(&mut report, i, &u.out);
    }
    let rounds = |u: &Unit| u.out.as_ref().map_or(0, |o| o.rounds);
    #[allow(clippy::cast_precision_loss)]
    {
        report.set("setup_s", p50(&col(&units, |u| clock.scaled(u.setup)))?);
        report.set(
            "session_s_p50",
            p50(&col(&units, |u| clock.scaled(u.session)))?,
        );
        report.set(
            "rounds_per_s",
            p50(&col(&units, |u| rounds(u) as f64 / clock.scaled(u.session)))?,
        );
        report.set(
            "pkt_per_s",
            p50(&col(&units, |u| K as f64 / clock.scaled(u.session)))?,
        );
        let prefix = &units[..MIN_UNITS];
        let total: u64 = prefix.iter().map(rounds).sum();
        report.set("rounds_per_packet", total as f64 / (MIN_UNITS * K) as f64);
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

/// One traced unit: the untraced reference session, then the timed one
/// on the same seed.
struct TracedUnit {
    plain: Result<Outcome, String>,
    plain_s: Stamp,
    timed: Result<Outcome, String>,
    timed_s: Stamp,
    log: StepLog,
    counters: NodeCounters,
    /// Checked workload only: bare, verify-only and trace-only session
    /// times on the same seed.
    observers: Option<[Stamp; 3]>,
}

fn traced(args: &Args, checked: bool, workload: &Workload) -> Result<Report, String> {
    let ov = Overhead::calibrate();
    let mut clock = RefClock::new();
    let mut tracer = Tracer::new();
    let timed_protocol = Timed::new(CodedProtocol::default());
    let units = run_units(args.seed, args.seconds, &mut clock, |unit, seed, clock| {
        let (graph, _) = setup(workload, seed)?;
        let (plain, plain_s) = session(
            &CodedProtocol::default(),
            graph.clone(),
            workload,
            seed,
            options(checked),
        );
        clock.maybe_tick();
        let observers = if checked {
            let mut run = |verify, trace| {
                let opts = RunOptions {
                    verify,
                    trace,
                    ..RunOptions::default()
                };
                let stamp = session(
                    &CodedProtocol::default(),
                    graph.clone(),
                    workload,
                    seed,
                    opts,
                )
                .1;
                clock.maybe_tick();
                stamp
            };
            Some([run(false, false), run(true, false), run(false, true)])
        } else {
            None
        };

        // The traced session: setup layers one by one, then the driver
        // with timed nodes and steps.
        let mut discard = Tracer::new();
        let tr = if unit.is_some() {
            &mut tracer
        } else {
            &mut discard
        };
        tr.set_unit(unit.unwrap_or(0));
        let root = tr.open("unit");
        let graph = tr.time("topology.build", || TOPOLOGY.build(seed));
        let graph = graph.map_err(|e| e.to_string())?;
        let net = tr.time("graph.probe", || NetParams::of_graph(&graph));
        let (nodes, awake) = tr.time("protocol.build", || {
            CodedProtocol::default().build(&net, workload, seed)
        });
        let session_graph = graph.clone();
        let engine = tr.time("engine.new", || Engine::new(graph, nodes, awake));
        drop(engine.map_err(|e| e.to_string())?);
        take_counters();
        let span = tr.open("session");
        let (res, timed_s) = Stamp::measure(|| {
            run_protocol_on_graph(
                &timed_protocol,
                session_graph,
                workload,
                seed,
                options(checked),
            )
        });
        let counters = take_counters();
        let log = timed_protocol.take_log();
        if let (Some(start), Some(end)) = (log.start, log.end) {
            tr.record("engine.run", start, end);
        }
        tr.close(span);
        tr.close(root);
        Ok(TracedUnit {
            plain,
            plain_s,
            timed: outcome(res),
            timed_s,
            log,
            counters,
            observers,
        })
    })?
    .units;

    let mut report = Report::default();
    for (i, u) in units.iter().enumerate() {
        if check(&mut report, i, &u.plain) && u.plain != u.timed {
            report.mismatch = true;
            report.note(format!(
                "unit {i}: traced session differs from the untraced one: {:?} vs {:?}",
                u.timed, u.plain
            ));
        }
    }
    crate::setup_layers(&mut report, &tracer, &clock)?;
    report.set(
        "session.driver_s",
        p50(&tracer.self_secs("session", &clock))?,
    );

    let records: Vec<EngineRecord<'_>> = units
        .iter()
        .map(|u| EngineRecord {
            log: &u.log,
            counters: &u.counters,
            stats: u.plain.as_ref().map(|o| o.stats).unwrap_or_default(),
            scale: clock.scale_at(u.timed_s.end),
        })
        .collect();
    let attribution = engine_layers(&mut report, &records, workload.len(), &ov)?;
    report.note(attribution);

    // Stage buckets of the step times by the session's own boundaries.
    let stage_s = |u: &TracedUnit| -> [f64; 4] {
        let mut out = [0.0; 4];
        let Ok(o) = &u.timed else { return out };
        let st = o.meta.stages;
        let bounds = [
            st.leader,
            st.leader + st.bfs,
            st.leader + st.bfs + st.collect,
        ];
        let scale = clock.scale_at(u.timed_s.end);
        for (round, ns) in (0u64..).zip(u.log.steps(&ov)) {
            let stage = bounds.iter().filter(|&&b| round >= b).count();
            out[stage] += ns * scale / 1e9;
        }
        out
    };
    for (i, key) in [
        "stage.leader_s",
        "stage.bfs_s",
        "stage.collect_s",
        "stage.disseminate_s",
    ]
    .into_iter()
    .enumerate()
    {
        report.set(key, p50(&col(&units, |u| stage_s(u)[i]))?);
    }

    // Simulated counts over the fixed prefix of units.
    #[allow(clippy::cast_precision_loss)]
    {
        let prefix = &units[..MIN_UNITS];
        let stages = |u: &TracedUnit| u.plain.as_ref().map(|o| o.meta.stages).unwrap_or_default();
        let pre = |f: &dyn Fn(StageRounds) -> u64| mean(&col(prefix, |u| f(stages(u)) as f64));
        report.set("stage.leader_rounds", pre(&|s| s.leader));
        report.set("stage.bfs_rounds", pre(&|s| s.bfs));
        report.set("stage.collect_rounds", pre(&|s| s.collect));
        report.set("stage.disseminate_rounds", pre(&|s| s.disseminate));
    }

    if checked {
        let obs = |i: usize| col(&units, |u| u.observers.map_or(0.0, |o| clock.scaled(o[i])));
        let bare = p50(&obs(0))?;
        report.set("observer.verify_x", p50(&obs(1))? / bare);
        report.set("observer.trace_x", p50(&obs(2))? / bare);
    }
    crate::trace_overhead(
        &mut report,
        &col(&units, |u| clock.scaled(u.plain_s)),
        &col(&units, |u| clock.scaled(u.timed_s)),
    )?;

    gf2_probe(
        &mut report,
        &mut clock,
        log2_ceil(workload.len()),
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
