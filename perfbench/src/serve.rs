//! `serve-stream`: one in-process `kbcast_serve::service::Service`
//! session per unit (`stream-seq` on `grid(8x8)`, verify off) under
//! Poisson load λ = 0.01 packets/round, below the E19 knee. A
//! closed-loop client with one outstanding request alternates an
//! `inject` carrying the next span's arrivals (when there are any) with
//! a `tick` over that span, then sends `run_until_drained`, `query` and
//! `shutdown`.

use std::str::FromStr;
use std::time::Instant;

use kbcast_bench::traffic::{TrafficPattern, TrafficSpec};
use kbcast_serve::proto::{Envelope, InjectPacket, LatencyBlock, Request, Response, StatsBlock};
use kbcast_serve::service::Service;
use radio_net::topology::Topology;

use crate::clock::{RefClock, Stamp};
use crate::report::{Report, END_TO_END, PER_LAYER};
use crate::spans::Tracer;
use crate::stats::mean;
use crate::{col, gf2_probe, log2_ceil, p50, p99, run_units, Args, Run, MIN_UNITS};

/// Topology spec of the session.
pub const TOPOLOGY: &str = "grid(8x8)";
/// Streaming protocol of the session.
pub const PROTOCOL: &str = "stream-seq";
/// Offered load, packets per round network-wide.
pub const LAMBDA: f64 = 0.01;
/// Arrival window in rounds (≈ 1200 packets per session).
pub const WINDOW: u64 = 120_000;
/// Rounds per `tick` request.
pub const SPAN: u64 = 50;
/// Round budget of the final drain.
pub const DRAIN_ROUNDS: u64 = 1_000_000;
/// Payload bytes of the traffic generator's packets.
pub const PAYLOAD_LEN: usize = 3;
/// Fewest packets a session must deliver, so the service's per-session
/// p99 latency has at least 10 packets beyond it.
pub const MIN_PACKETS: u64 = 1000;

/// Request kinds of the closed loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Inject,
    Tick,
    Drain,
    Query,
    Shutdown,
}

impl Op {
    fn span(self) -> &'static str {
        match self {
            Op::Inject => "serve.inject",
            Op::Tick => "serve.tick",
            Op::Drain => "serve.drain",
            Op::Query => "serve.query",
            Op::Shutdown => "serve.shutdown",
        }
    }
}

fn line(req: Request) -> String {
    Envelope { id: None, req }.to_json().to_string()
}

/// A session's requests after `init`, with their kinds.
type Script = Vec<(Op, String)>;

/// The session's `init` line and request script.
fn script(seed: u64) -> Result<(String, Script), String> {
    let topo = Topology::from_str(TOPOLOGY).map_err(|e| e.to_string())?;
    let n = topo.build(seed).map_err(|e| e.to_string())?.len();
    let traffic = TrafficSpec {
        pattern: TrafficPattern::Poisson { lambda: LAMBDA },
        window: WINDOW,
    };
    let arrivals = traffic.generate(n, seed).map_err(|e| e.to_string())?;
    let init = line(Request::Init {
        topology: TOPOLOGY.into(),
        protocol: PROTOCOL.into(),
        seed,
        faults: None,
        horizon: None,
        verify: Some(false),
        trace: Some(false),
        cd: None,
        churn: None,
    });
    let mut reqs = Vec::new();
    let mut next = arrivals.iter().peekable();
    for start in (0..=WINDOW).step_by(usize::try_from(SPAN).expect("span fits usize")) {
        let mut packets = Vec::new();
        while let Some(a) = next.next_if(|a| a.round < start + SPAN) {
            packets.push(InjectPacket {
                node: a.node,
                round: Some(a.round),
                payload: a.payload.clone(),
            });
        }
        if !packets.is_empty() {
            reqs.push((Op::Inject, line(Request::Inject { packets })));
        }
        reqs.push((Op::Tick, line(Request::Tick { rounds: SPAN })));
    }
    reqs.push((
        Op::Drain,
        line(Request::RunUntilDrained {
            max_rounds: Some(DRAIN_ROUNDS),
        }),
    ));
    reqs.push((Op::Query, line(Request::Query { packet: None })));
    reqs.push((Op::Shutdown, line(Request::Shutdown)));
    Ok((init, reqs))
}

/// The final `query` of a session, plus its error responses.
#[derive(Clone, Debug, Default, PartialEq)]
struct Outcome {
    k: u64,
    round: u64,
    all_delivered: bool,
    violations: u64,
    latency: LatencyBlock,
    throughput: f64,
    stats: StatsBlock,
    errors: Vec<String>,
}

impl Outcome {
    fn absorb(&mut self, resp: &str) {
        match Response::parse(resp) {
            Ok((Response::Error { error }, _)) => self.errors.push(error),
            Ok((
                Response::QueryAck {
                    round,
                    k,
                    all_delivered,
                    violations,
                    latency,
                    throughput,
                    stats,
                    ..
                },
                _,
            )) => {
                *self = Outcome {
                    k,
                    round,
                    all_delivered,
                    violations,
                    latency,
                    throughput,
                    stats,
                    errors: std::mem::take(&mut self.errors),
                };
            }
            Ok((Response::ShutdownAck { violations, .. }, _)) => self.violations = violations,
            Ok(_) => {}
            Err(e) => self
                .errors
                .push(format!("unparseable response {resp:?}: {e}")),
        }
    }

    fn failure(&self) -> Option<String> {
        if let Some(e) = self.errors.first() {
            Some(format!("error response: {e}"))
        } else if !self.all_delivered {
            Some(format!(
                "session ended with undelivered packets (k = {})",
                self.k
            ))
        } else if self.violations > 0 {
            Some(format!("{} verify violations", self.violations))
        } else {
            None
        }
    }
}

/// A started session: the service after `init`, the script, and the
/// set-up time (script generation plus `init`).
fn setup(seed: u64) -> Result<(Service, Script, Stamp), String> {
    let (started, stamp) = Stamp::measure(|| -> Result<_, String> {
        let (init, reqs) = script(seed)?;
        let mut service = Service::new();
        let ack = service.handle_line(&init);
        Ok((service, reqs, ack))
    });
    let (service, reqs, ack) = started?;
    match Response::parse(&ack) {
        Ok((Response::InitAck { .. }, _)) => Ok((service, reqs, stamp)),
        _ => Err(format!("init failed: {ack}")),
    }
}

/// The `handle_line` time of every request of one session, by kind.
struct Timings {
    req: Vec<(Op, Stamp)>,
}

impl Timings {
    /// Scaled seconds of the requests of the kinds `ops` selects.
    fn secs(&self, clock: &RefClock, ops: impl Fn(Op) -> bool) -> f64 {
        self.req
            .iter()
            .filter(|r| ops(r.0))
            .map(|r| clock.scaled(r.1))
            .sum()
    }

    /// Scaled seconds of the whole session.
    fn total(&self, clock: &RefClock) -> f64 {
        self.secs(clock, |_| true)
    }

    /// Scaled seconds of the requests that run rounds.
    fn sim(&self, clock: &RefClock) -> f64 {
        self.secs(clock, |op| matches!(op, Op::Tick | Op::Drain))
    }
}

/// Runs the script in a closed loop, timing each `handle_line` and
/// letting the clock walk between requests.
fn session(
    service: &mut Service,
    reqs: &[(Op, String)],
    clock: &mut RefClock,
) -> (Outcome, Timings) {
    let mut out = Outcome::default();
    let mut req = Vec::with_capacity(reqs.len());
    for (op, l) in reqs {
        let (resp, stamp) = Stamp::measure(|| service.handle_line(l));
        req.push((*op, stamp));
        out.absorb(&resp);
        clock.maybe_tick();
    }
    (out, Timings { req })
}

/// Runs the workload.
///
/// # Errors
///
/// A setup failure, a session with too few packets for its p99, or a
/// metric without enough samples.
pub fn run(args: &Args) -> Result<Report, String> {
    if args.trace {
        traced(args)
    } else {
        untraced(args)
    }
}

fn check(report: &mut Report, unit: usize, out: &Outcome) -> Result<(), String> {
    report.attempted += 1;
    if let Some(why) = out.failure() {
        report.failed += 1;
        report.note(format!("unit {unit}: {why}"));
    } else if out.latency.count < MIN_PACKETS {
        return Err(format!(
            "unit {unit}: {} packets, need {MIN_PACKETS} for a p99 latency",
            out.latency.count
        ));
    }
    Ok(())
}

struct Unit {
    setup: Stamp,
    out: Outcome,
    times: Timings,
}

fn untraced(args: &Args) -> Result<Report, String> {
    let mut clock = RefClock::new();
    let Run {
        units,
        warmup_rss_mb,
    } = run_units(args.seed, args.seconds, &mut clock, |_, seed, clock| {
        let (mut service, reqs, setup) = setup(seed)?;
        clock.maybe_tick();
        let (out, times) = session(&mut service, &reqs, clock);
        Ok(Unit { setup, out, times })
    })?;
    let mut report = Report::default();
    for (i, u) in units.iter().enumerate() {
        check(&mut report, i, &u.out)?;
    }
    #[allow(clippy::cast_precision_loss)]
    {
        report.set("setup_s", p50(&col(&units, |u| clock.scaled(u.setup)))?);
        report.set(
            "session_s_p50",
            p50(&col(&units, |u| u.times.total(&clock)))?,
        );
        report.set(
            "rounds_per_s",
            p50(&col(&units, |u| u.out.round as f64 / u.times.sim(&clock)))?,
        );
        report.set(
            "pkt_per_s",
            p50(&col(&units, |u| u.out.k as f64 / u.times.total(&clock)))?,
        );
        let prefix = &units[..MIN_UNITS];
        let rounds: u64 = prefix.iter().map(|u| u.out.round).sum();
        let k: u64 = prefix.iter().map(|u| u.out.k).sum();
        report.set("rounds_per_packet", rounds as f64 / k.max(1) as f64);
    }
    report.set("peak_rss_mb", warmup_rss_mb);
    let requests: usize = units.iter().map(|u| u.times.req.len()).sum();
    report.note(clock.note());
    report.note(format!(
        "sessions: {} (simulated metrics over the first {MIN_UNITS}); requests: {requests}",
        units.len()
    ));
    report.zero_rest(END_TO_END);
    Ok(report)
}

struct TracedUnit {
    plain: Outcome,
    plain_times: Timings,
    timed: Outcome,
    timed_times: Timings,
}

fn traced(args: &Args) -> Result<Report, String> {
    let mut clock = RefClock::new();
    let mut tracer = Tracer::new();
    let units = run_units(args.seed, args.seconds, &mut clock, |unit, seed, clock| {
        let (mut service, reqs, _) = setup(seed)?;
        let (plain, plain_times) = session(&mut service, &reqs, clock);
        drop(service);

        let mut discard = Tracer::new();
        let tr = if unit.is_some() {
            &mut tracer
        } else {
            &mut discard
        };
        tr.set_unit(unit.unwrap_or(0));
        let root = tr.open("unit");
        let (mut service, reqs, _) = tr.time("serve.setup", || setup(seed))?;
        let mut timed = Outcome::default();
        let mut req = Vec::with_capacity(reqs.len());
        for (op, l) in &reqs {
            // The codec layers, timed on their own beside the request.
            let parsed = tr.time("serve.parse", || Envelope::parse(l));
            std::hint::black_box(parsed).map_err(|e| format!("script line {l:?}: {e}"))?;
            let start = Instant::now();
            let resp = service.handle_line(l);
            let stamp = Stamp::since(start);
            tr.record(op.span(), start, stamp.end);
            req.push((*op, stamp));
            if let Ok((reply, id)) = Response::parse(&resp) {
                let encoded = tr.time("serve.encode", || reply.to_json(id.as_ref()).to_string());
                std::hint::black_box(encoded);
            }
            timed.absorb(&resp);
            clock.maybe_tick();
        }
        tr.close(root);
        Ok(TracedUnit {
            plain,
            plain_times,
            timed,
            timed_times: Timings { req },
        })
    })?
    .units;

    let mut report = Report::default();
    for (i, u) in units.iter().enumerate() {
        check(&mut report, i, &u.plain)?;
        if u.plain != u.timed {
            report.mismatch = true;
            report.note(format!(
                "unit {i}: traced session differs from the untraced one: {:?} vs {:?}",
                u.timed, u.plain
            ));
        }
    }
    let us =
        |name: &str| -> Vec<f64> { tracer.secs(name, &clock).iter().map(|s| s * 1e6).collect() };
    report.set("serve.parse_us_p50", p50(&us("serve.parse"))?);
    report.set("serve.encode_us_p50", p50(&us("serve.encode"))?);
    report.set("serve.inject_us_p50", p50(&us("serve.inject"))?);
    let ticks = us("serve.tick");
    report.set("serve.tick_us_p50", p50(&ticks)?);
    report.set("serve.tick_us_p99", p99(&ticks)?);
    report.set("serve.drain_s", p50(&tracer.secs("serve.drain", &clock))?);
    let requests: Vec<f64> = [
        "serve.inject",
        "serve.tick",
        "serve.drain",
        "serve.query",
        "serve.shutdown",
    ]
    .iter()
    .flat_map(|name| us(name))
    .collect();
    report.set("serve.req_us_p50", p50(&requests)?);
    report.set("serve.req_us_p99", p99(&requests)?);
    #[allow(clippy::cast_precision_loss)]
    report.set("serve.requests", requests.len() as f64);

    #[allow(clippy::cast_precision_loss)]
    {
        let prefix = &units[..MIN_UNITS];
        let pre = |f: &dyn Fn(&Outcome) -> f64| mean(&col(prefix, |u| f(&u.plain)));
        report.set(
            "serve.latency_rounds_p50",
            pre(&|o| o.latency.p50.unwrap_or(0) as f64),
        );
        report.set(
            "serve.latency_rounds_p99",
            pre(&|o| o.latency.p99.unwrap_or(0) as f64),
        );
        report.set("serve.sim_pkt_per_round", pre(&|o| o.throughput));
        let sum = |f: &dyn Fn(&StatsBlock) -> u64| {
            prefix.iter().map(|u| f(&u.plain.stats)).sum::<u64>() as f64
        };
        report.set(
            "engine.rx_per_tx",
            sum(&|s| s.receptions) / sum(&|s| s.transmissions).max(1.0),
        );
        report.set(
            "engine.collisions_per_round",
            sum(&|s| s.collisions) / sum(&|s| s.rounds).max(1.0),
        );
    }

    crate::trace_overhead(
        &mut report,
        &col(&units, |u| u.plain_times.total(&clock)),
        &col(&units, |u| u.timed_times.total(&clock)),
    )?;

    let n = Topology::from_str(TOPOLOGY)
        .and_then(|t| t.build(0))
        .map_err(|e| e.to_string())?
        .len();
    gf2_probe(
        &mut report,
        &mut clock,
        log2_ceil(n),
        PAYLOAD_LEN,
        args.seed,
    )?;
    report.note(clock.note());
    report.note(format!(
        "sessions: {}; requests: {}; spans: {}",
        units.len(),
        requests.len(),
        tracer.spans().len()
    ));
    crate::write_spans(&tracer, args, &mut report);
    report.zero_rest(PER_LAYER);
    Ok(report)
}
