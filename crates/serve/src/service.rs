//! The service: a persistent simulated radio network behind the line
//! protocol.
//!
//! The service is a codec over the library's session: it validates
//! requests, keeps the arrival log and answers in JSON, while the
//! simulation itself is a [`LiveSession`] of
//! [`kbcast::dynamic::DynamicProtocol`] — the same builder
//! [`kbcast::dynamic::run_streaming`] goes through, with the same
//! nodes, fault and churn models, verify stack and trace collector.
//!
//! Ownership split: the [`Service`] owns engine *time* — rounds only
//! advance inside `tick` / `run_until_drained` requests, each one
//! [`ScheduleSource::run`] span of the session's engine, the drive the
//! library's own streaming session runs. Wall-clock *ingestion*
//! (requests arriving between runs) only mutates harness state:
//! `inject` checks each arrival with the library's arrival rule
//! ([`check_arrival`]) and queues it into that [`ScheduleSource`], which
//! replays it at the top of its round.
//!
//! Determinism contract: a session is fully determined by the `init`
//! parameters plus the request sequence; nothing is read from the
//! environment (an absent `verify` or `trace` switch is off). The
//! session is built lazily at
//! the first run request, from the arrivals logged so far, so a service
//! session whose faults are never flipped mid-run reproduces the
//! library run bit-for-bit on the same seed (pinned by
//! `tests/service_vs_library.rs`).

use std::str::FromStr;

use kbcast::config::Config;
use kbcast::dynamic::{
    arrival_key, check_arrival, stamp_latencies, Arrival, DynamicNode, DynamicProtocol,
    ScheduleSource,
};
use kbcast::packet::PacketKey;
use kbcast::runner::{round_cap, RunOptions};
use kbcast::session::{Drive, LiveSession};
use radio_net::dyntopo::ChurnSpec;
use radio_net::engine::{Engine, NoCd};
use radio_net::faults::{BuiltFaults, FaultSpec};
use radio_net::graph::{Graph, NodeId};
use radio_net::session::{NoopObserver, Observer, SessionEnd};
use radio_net::stats::{mean, nearest_rank};
use radio_net::topology::Topology;

use crate::json::Json;
use crate::proto::{
    Envelope, InjectPacket, LatencyBlock, PacketState, Request, Response, StatsBlock,
};

/// The service's session: the streaming protocol without collision
/// detection, its faults and churn built from the session's options.
type Session = LiveSession<DynamicNode, NoCd, NoopObserver>;

/// One `tick` / `run_until_drained` span: the engine runs up to the
/// absolute round `target`, injecting queued arrivals, and with `drain`
/// set stops early once every node holds all `k` packets (see
/// [`ScheduleSource::run`]).
struct Span<'a> {
    target: u64,
    drain: bool,
    k: usize,
    source: &'a mut ScheduleSource,
}

impl Drive<DynamicNode, NoCd> for Span<'_> {
    fn drive<O: Observer<DynamicNode>>(
        self,
        engine: &mut Engine<DynamicNode, BuiltFaults, NoCd>,
        obs: &mut O,
    ) -> SessionEnd {
        self.source
            .run(engine, self.target, obs, self.k, self.drain)
    }
}

/// The live simulation once the session exists.
struct Live {
    /// The protocol configuration the nodes were built with; sizes the
    /// default drain budget.
    cfg: Config,
    session: Session,
    /// Arrivals queued for rounds the engine has not reached.
    source: ScheduleSource,
}

enum Phase {
    /// No `init` yet.
    Uninit,
    /// Configured with this graph (`add_node` may still grow it); the
    /// session is built at the first `tick` / `run_until_drained`.
    Configured(Graph),
    /// Rounds have (possibly) executed.
    Running(Box<Live>),
}

/// One service session: the request dispatcher plus all simulation
/// state. [`Service::handle_line`] never panics on malformed input —
/// every failure is a structured error response and the session keeps
/// accepting requests.
pub struct Service {
    phase: Phase,
    seed: u64,
    horizon: u64,
    /// The session's faults, churn, verify and trace switches. The
    /// session is built from them; afterwards `set_faults` keeps
    /// `faults` current for `query`'s echo.
    options: RunOptions,
    /// Full arrival log in request order. Because inject rounds are
    /// monotone, this is simultaneously schedule order — the order the
    /// key rule ([`arrival_key`]) counts in — and its last entry holds
    /// the highest round injected at.
    arrivals: Vec<Arrival>,
    /// Set once `shutdown` was acknowledged.
    done: bool,
}

fn err(msg: impl Into<String>) -> Response {
    Response::Error { error: msg.into() }
}

/// The one streaming protocol's name, as `init` echoes it.
const PROTOCOL: &str = "stream-seq";

/// Accepts the streaming protocol's name or one of its aliases.
fn check_protocol(name: &str) -> Result<(), String> {
    match name.trim() {
        "stream-seq" | "seq" | "sequential" | "dynamic" => Ok(()),
        other => Err(format!(
            "unknown streaming protocol {other:?} (expected {PROTOCOL})"
        )),
    }
}

impl Default for Service {
    fn default() -> Self {
        Self::new()
    }
}

impl Service {
    /// A fresh, unconfigured session.
    #[must_use]
    pub fn new() -> Self {
        Service {
            phase: Phase::Uninit,
            seed: 0,
            horizon: u64::MAX,
            options: RunOptions::default(),
            arrivals: Vec::new(),
            done: false,
        }
    }

    /// Whether `shutdown` has been acknowledged (the event loop exits).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Handles one request line, returning one response line (no
    /// trailing newline).
    pub fn handle_line(&mut self, line: &str) -> String {
        let (id, resp) = match Envelope::parse(line) {
            Ok(env) => (env.id, self.dispatch(env.req)),
            Err(e) => (None, err(e)),
        };
        resp.to_json(id.as_ref()).to_string()
    }

    fn dispatch(&mut self, req: Request) -> Response {
        match req {
            Request::Init {
                topology,
                protocol,
                seed,
                faults,
                horizon,
                verify,
                trace,
                cd,
                churn,
            } => self.init(
                &topology,
                &protocol,
                seed,
                faults.as_deref(),
                horizon,
                verify,
                trace,
                cd,
                churn.as_deref(),
            ),
            Request::AddNode { neighbors } => self.add_node(&neighbors),
            Request::Inject { packets } => self.inject(packets),
            Request::SetFaults { faults } => self.set_faults(&faults),
            Request::Tick { rounds } => self.tick(rounds),
            Request::RunUntilDrained { max_rounds } => self.run_until_drained(max_rounds),
            Request::Query { packet } => self.query(packet),
            Request::Snapshot => self.snapshot(),
            Request::Shutdown => self.shutdown(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn init(
        &mut self,
        topology: &str,
        protocol: &str,
        seed: u64,
        faults: Option<&str>,
        horizon: Option<u64>,
        verify: Option<bool>,
        trace: Option<bool>,
        cd: Option<bool>,
        churn: Option<&str>,
    ) -> Response {
        if !matches!(self.phase, Phase::Uninit) {
            return err("init: session already initialized");
        }
        let topo = match Topology::from_str(topology) {
            Ok(t) => t,
            Err(e) => return err(format!("init: {e}")),
        };
        if let Err(e) = check_protocol(protocol) {
            return err(format!("init: {e}"));
        }
        if cd == Some(true) {
            return err(format!(
                "init: the streaming protocol ({PROTOCOL}) does not use collision detection; \
                 \"cd\" must be false or absent"
            ));
        }
        let spec = match faults {
            None => FaultSpec::default(),
            Some(s) => match FaultSpec::from_str(s) {
                Ok(spec) => spec,
                Err(e) => return err(format!("init: {e}")),
            },
        };
        let churn_spec = match churn {
            None => ChurnSpec::None,
            Some(s) => match ChurnSpec::from_str(s) {
                Ok(spec) => spec,
                Err(e) => return err(format!("init: {e}")),
            },
        };
        let horizon = horizon.unwrap_or(u64::MAX);
        if horizon == 0 {
            return err("init: \"horizon\" must be at least 1 round");
        }
        let graph = match topo.build(seed) {
            Ok(g) => g,
            Err(e) => return err(format!("init: {e}")),
        };
        // Fail un-buildable fault and churn specs now, not at the first
        // run.
        if let Err(e) = spec.build(graph.len(), seed) {
            return err(format!("init: {e}"));
        }
        if let Err(e) = churn_spec.build(&graph, seed) {
            return err(format!("init: {e}"));
        }
        let n = graph.len() as u64;
        let diameter = graph.diameter().unwrap_or(0) as u64;
        let max_degree = graph.max_degree() as u64;
        self.seed = seed;
        self.horizon = horizon;
        self.options = RunOptions {
            verify: verify.unwrap_or(false),
            trace: trace.unwrap_or(false),
            churn: churn_spec,
            faults: spec,
            ..RunOptions::default()
        };
        self.phase = Phase::Configured(graph);
        Response::InitAck {
            n,
            diameter,
            max_degree,
            protocol: PROTOCOL.to_string(),
            topology: topo.to_string(),
            faults: spec.to_string(),
            churn: (!churn_spec.is_none()).then(|| churn_spec.to_string()),
        }
    }

    fn add_node(&mut self, neighbors: &[usize]) -> Response {
        let graph = match &mut self.phase {
            Phase::Uninit => return err("add_node: no session (send init first)"),
            Phase::Running(_) => {
                return err("add_node: the first round has been scheduled; topology is frozen")
            }
            Phase::Configured(g) => g,
        };
        let n = graph.len();
        if neighbors.is_empty() {
            return err("add_node: a new node needs at least one neighbor");
        }
        if let Some(&bad) = neighbors.iter().find(|&&v| v >= n) {
            return err(format!(
                "add_node: neighbor {bad} out of range (existing nodes are 0..{n})"
            ));
        }
        // Rebuild the graph with one more node: existing adjacency plus
        // the new node's edges.
        let mut edges: Vec<(usize, usize)> =
            Vec::with_capacity(graph.edge_count() + neighbors.len());
        for u in 0..n {
            for &v in graph.neighbors(NodeId::new(u)) {
                if u < v.index() {
                    edges.push((u, v.index()));
                }
            }
        }
        for &v in neighbors {
            edges.push((v, n));
        }
        match Graph::from_edges(n + 1, edges) {
            Ok(g) => *graph = g,
            Err(e) => return err(format!("add_node: {e}")),
        }
        Response::AddNodeAck {
            node: n as u64,
            n: (n + 1) as u64,
        }
    }

    fn inject(&mut self, packets: Vec<InjectPacket>) -> Response {
        let (n, current) = match &self.phase {
            Phase::Uninit => return err("inject: no session (send init first)"),
            Phase::Configured(g) => (g.len(), 0),
            Phase::Running(l) => (l.session.net().n, l.session.engine().round()),
        };
        // Validate the whole batch before accepting any of it, so a
        // failed request leaves no partial state behind.
        let mut floor = self.arrivals.last().map_or(0, |a| a.round).max(current);
        let mut resolved: Vec<Arrival> = Vec::with_capacity(packets.len());
        for p in packets {
            let arrival = Arrival {
                round: p.round.unwrap_or(floor),
                node: p.node,
                payload: p.payload,
            };
            if let Err(e) = check_arrival(&arrival, n, floor) {
                return err(format!("inject: {e}"));
            }
            if arrival.round >= self.horizon && arrival.round > 0 {
                return err(format!(
                    "inject: round {} is at or beyond the horizon ({})",
                    arrival.round, self.horizon
                ));
            }
            floor = arrival.round;
            resolved.push(arrival);
        }
        let accepted = resolved.len() as u64;
        for arrival in resolved {
            if let Phase::Running(live) = &mut self.phase {
                // Round-0 packets only exist pre-start (the floor is
                // the current round once running).
                live.source.push(arrival.clone());
                live.session.on_inject(NodeId::new(arrival.node));
            }
            self.arrivals.push(arrival);
        }
        Response::InjectAck {
            accepted,
            k: self.arrivals.len() as u64,
        }
    }

    fn set_faults(&mut self, spec: &str) -> Response {
        let spec = match FaultSpec::from_str(spec) {
            Ok(s) => s,
            Err(e) => return err(format!("set_faults: {e}")),
        };
        let round = match &mut self.phase {
            Phase::Uninit => return err("set_faults: no session (send init first)"),
            Phase::Configured(g) => {
                if let Err(e) = spec.build(g.len(), self.seed) {
                    return err(format!("set_faults: {e}"));
                }
                0
            }
            Phase::Running(live) => {
                match spec.build(live.session.net().n, self.seed) {
                    Ok(built) => *live.session.faults_mut() = built,
                    Err(e) => return err(format!("set_faults: {e}")),
                }
                live.session.engine().round()
            }
        };
        self.options.faults = spec;
        Response::SetFaultsAck {
            faults: spec.to_string(),
            round,
        }
    }

    /// Builds the session if it is still `Configured`: the library's
    /// [`LiveSession::build`] over the arrivals logged so far, exactly
    /// as [`kbcast::dynamic::run_streaming`] builds it for the same
    /// schedule — refusing, like it, a schedule without a round-0
    /// arrival.
    fn ensure_running(&mut self) -> Result<(), String> {
        let graph = match &self.phase {
            Phase::Uninit => return Err("no session (send init first)".into()),
            Phase::Running(_) => return Ok(()),
            Phase::Configured(g) => g,
        };
        if !graph.is_connected() {
            return Err("the topology is disconnected".into());
        }
        let n = graph.len();
        let protocol = DynamicProtocol {
            arrivals: &self.arrivals,
            config: None,
            horizon: self.horizon,
        };
        let session = Session::build(
            &protocol,
            graph.clone(),
            &protocol.initial_workload(n),
            self.seed,
            &self.options,
        )
        .map_err(|e| format!("session construction failed: {e}"))?;
        let cfg = protocol.config_for(&session.net());
        let source = ScheduleSource::new(&self.arrivals);
        self.phase = Phase::Running(Box::new(Live {
            cfg,
            session,
            source,
        }));
        Ok(())
    }

    /// Runs the session up to the absolute round `target`, stopping
    /// early at the drain condition when `drain` is set.
    fn run_span(&mut self, target: u64, drain: bool) -> SessionEnd {
        let k = self.arrivals.len();
        let Phase::Running(live) = &mut self.phase else {
            unreachable!("run_span is only called on running sessions");
        };
        let Live {
            session, source, ..
        } = &mut **live;
        session.run(Span {
            target,
            drain,
            k,
            source,
        })
    }

    /// The running session, if it has started.
    fn live(&self) -> Option<&Live> {
        match &self.phase {
            Phase::Running(live) => Some(live),
            _ => None,
        }
    }

    fn nodes(&self) -> &[DynamicNode] {
        self.live().map_or(&[], |l| l.session.engine().nodes())
    }

    fn round(&self) -> u64 {
        self.live().map_or(0, |l| l.session.engine().round())
    }

    fn delivered_min(&self) -> u64 {
        self.nodes()
            .iter()
            .map(|nd| nd.delivered_count() as u64)
            .min()
            .unwrap_or(0)
    }

    fn is_drained(&self) -> bool {
        let k = self.arrivals.len() as u64;
        k > 0 && self.delivered_min() == k
    }

    fn tick(&mut self, rounds: u64) -> Response {
        if let Err(e) = self.ensure_running() {
            return err(e);
        }
        let target = self.round().saturating_add(rounds).min(self.horizon);
        self.run_span(target, false);
        Response::TickAck {
            round: self.round(),
            delivered_min: self.delivered_min(),
            drained: self.is_drained(),
        }
    }

    /// Runs until every injected packet reached every node, or until
    /// the budget runs out: `max_rounds` when given, else the session's
    /// `horizon`. With neither, the budget is [`round_cap`] for the
    /// injected packet count, counted from the later of the current
    /// round and the last injection — enough to carry every packet in
    /// a batch, so a session whose packets can never arrive (e.g.
    /// their sources crashed) answers `completed: false` instead of
    /// running forever.
    fn run_until_drained(&mut self, max_rounds: Option<u64>) -> Response {
        if let Err(e) = self.ensure_running() {
            return err(e);
        }
        let current = self.round();
        let budget = match (max_rounds, self.live()) {
            (Some(m), _) => current.saturating_add(m),
            (None, Some(live)) if self.horizon == u64::MAX => current
                .max(self.arrivals.last().map_or(0, |a| a.round))
                .saturating_add(round_cap(&live.cfg, self.arrivals.len())),
            (None, _) => u64::MAX,
        };
        let target = budget.min(self.horizon);
        let end = self.run_span(target, true);
        Response::DrainAck {
            completed: end.completed,
            round: self.round(),
        }
    }

    fn violations(&self) -> u64 {
        self.live().map_or(0, |l| l.session.violations() as u64)
    }

    fn latency_block(&self) -> (LatencyBlock, Vec<u64>) {
        if self.live().is_none() {
            return (LatencyBlock::default(), Vec::new());
        }
        let lats = stamp_latencies(&self.arrivals, self.nodes());
        (
            LatencyBlock {
                count: lats.len() as u64,
                mean: mean(&lats),
                p50: nearest_rank(&lats, 50.0),
                p90: nearest_rank(&lats, 90.0),
                p99: nearest_rank(&lats, 99.0),
                max: lats.last().copied(),
            },
            lats,
        )
    }

    fn query(&mut self, packet: Option<(u64, u32)>) -> Response {
        if matches!(self.phase, Phase::Uninit) {
            return err("query: no session (send init first)");
        }
        let round = self.round();
        let stats = self.live().map_or_else(StatsBlock::default, |l| {
            StatsBlock::of(l.session.engine().stats())
        });
        let (latency, lats) = self.latency_block();
        #[allow(clippy::cast_precision_loss)]
        let throughput = if round == 0 {
            0.0
        } else {
            lats.len() as f64 / round as f64
        };
        let packet = match packet {
            None => None,
            Some((origin, seq)) => {
                if self.live().is_none() {
                    return err("query: packet drill-down needs a started session");
                }
                let key = PacketKey { origin, seq };
                let nodes = self.nodes();
                let mut holders = 0u64;
                let mut last_stamp = 0u64;
                for nd in nodes {
                    if let Some(&(_, r)) = nd.stamps().iter().find(|&&(k, _)| k == key) {
                        holders += 1;
                        last_stamp = last_stamp.max(r);
                    }
                }
                let delivered = holders == nodes.len() as u64;
                let mut counts = Vec::new();
                let birth = self
                    .arrivals
                    .iter()
                    .find(|a| arrival_key(&mut counts, a.node) == key)
                    .map(|a| a.round);
                Some(PacketState {
                    origin,
                    seq,
                    holders,
                    delivered,
                    latency: match (delivered, birth) {
                        (true, Some(b)) => Some(last_stamp.saturating_sub(b)),
                        _ => None,
                    },
                })
            }
        };
        Response::QueryAck {
            round,
            started: self.live().is_some(),
            k: self.arrivals.len() as u64,
            delivered_min: self.delivered_min(),
            all_delivered: self.is_drained(),
            faults: self.options.faults.to_string(),
            violations: self.violations(),
            stats,
            latency,
            throughput,
            packet,
        }
    }

    fn snapshot(&mut self) -> Response {
        let live = match &self.phase {
            Phase::Uninit => return err("snapshot: no session (send init first)"),
            Phase::Configured(_) => {
                return Response::SnapshotAck {
                    round: 0,
                    violations: 0,
                    trace: None,
                }
            }
            Phase::Running(l) => l,
        };
        let trace = live.session.tracer().map(|t| {
            let text = t.snapshot_summary().to_json();
            Json::parse(&text).expect("TraceSummary::to_json emits valid JSON")
        });
        Response::SnapshotAck {
            round: live.session.engine().round(),
            violations: self.violations(),
            trace,
        }
    }

    fn shutdown(&mut self) -> Response {
        let round = self.round();
        if let Phase::Running(live) = &mut self.phase {
            // End-of-session invariants (delivery completeness,
            // duplicate/forged keys) run now, like the library driver's
            // `finish`.
            live.session.end_checks(&SessionEnd {
                completed: true,
                rounds: round,
            });
        }
        let violations = self.violations();
        self.done = true;
        Response::ShutdownAck { round, violations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbcast::packet::MAX_PAYLOAD_BYTES;

    fn ok(line: &str) -> Json {
        let doc = Json::parse(line).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true), "{line}");
        doc
    }

    #[test]
    fn a_minimal_session_runs_to_drain() {
        let mut s = Service::new();
        ok(&s.handle_line(
            r#"{"op":"init","topology":"gnp(n=12,p=0.45)","protocol":"stream-seq","seed":7}"#,
        ));
        ok(&s.handle_line(r#"{"op":"inject","node":0,"round":0,"payload":[1,2,3]}"#));
        ok(&s.handle_line(r#"{"op":"inject","node":5,"round":0,"payload":[4]}"#));
        let drain = ok(&s.handle_line(r#"{"op":"run_until_drained","max_rounds":200000}"#));
        assert_eq!(drain.get("completed").and_then(Json::as_bool), Some(true));
        let q = ok(&s.handle_line(r#"{"op":"query"}"#));
        assert_eq!(q.get("k").and_then(Json::as_u64), Some(2));
        assert_eq!(q.get("all_delivered").and_then(Json::as_bool), Some(true));
        let lat = q.get("latency").unwrap();
        assert_eq!(lat.get("count").and_then(Json::as_u64), Some(2));
        let sd = ok(&s.handle_line(r#"{"op":"shutdown"}"#));
        assert_eq!(sd.get("violations").and_then(Json::as_u64), Some(0));
        assert!(s.is_done());
    }

    #[test]
    fn mid_run_injection_and_fault_flip_still_drain() {
        let mut s = Service::new();
        ok(&s.handle_line(
            r#"{"op":"init","topology":"grid(3x3)","protocol":"stream-seq","seed":11,"verify":true}"#,
        ));
        ok(&s.handle_line(r#"{"op":"inject","node":0,"round":0,"payload":[9]}"#));
        ok(&s.handle_line(r#"{"op":"tick","rounds":500}"#));
        let sf = ok(&s.handle_line(r#"{"op":"set_faults","faults":"uniform:rate=0.05"}"#));
        assert_eq!(
            sf.get("faults").and_then(Json::as_str),
            Some("uniform:rate=0.05")
        );
        // Mid-run arrival at the current floor.
        ok(&s.handle_line(r#"{"op":"inject","node":4,"payload":[7,7]}"#));
        ok(&s.handle_line(r#"{"op":"set_faults","faults":"none"}"#));
        let drain = ok(&s.handle_line(r#"{"op":"run_until_drained","max_rounds":400000}"#));
        assert_eq!(drain.get("completed").and_then(Json::as_bool), Some(true));
        let sd = ok(&s.handle_line(r#"{"op":"shutdown"}"#));
        assert_eq!(sd.get("violations").and_then(Json::as_u64), Some(0));
    }

    /// A verified grid(3x3) session whose verify stack is told of a
    /// packet at node 1 while the network gets one at node 2 instead.
    /// Returns the violation count at shutdown.
    fn misreported_injection_violations(faults: &str) -> u64 {
        let mut s = Service::new();
        ok(&s.handle_line(&format!(
            r#"{{"op":"init","topology":"grid(3x3)","protocol":"stream-seq","seed":5,"verify":true,"faults":"{faults}"}}"#
        )));
        ok(&s.handle_line(r#"{"op":"inject","node":0,"round":0,"payload":[1]}"#));
        ok(&s.handle_line(r#"{"op":"tick","rounds":10}"#));
        let Phase::Running(live) = &mut s.phase else {
            panic!("tick starts the session");
        };
        live.session.on_inject(NodeId::new(1));
        let arrival = Arrival {
            round: 10,
            node: 2,
            payload: vec![2],
        };
        live.source.push(arrival.clone());
        s.arrivals.push(arrival);
        let drain = ok(&s.handle_line(r#"{"op":"run_until_drained","max_rounds":400000}"#));
        assert_eq!(drain.get("completed").and_then(Json::as_bool), Some(true));
        let sd = ok(&s.handle_line(r#"{"op":"shutdown"}"#));
        sd.get("violations").and_then(Json::as_u64).unwrap()
    }

    #[test]
    fn a_session_without_faults_or_churn_runs_the_clean_checks() {
        // Either way the unreported key (2,0) is flagged as forged.
        // Only a clean session also asserts that a node holding the full
        // count holds exactly the expected set, which flags all 9 nodes.
        // Zero-rate loss runs the same rounds but is not clean.
        let clean = misreported_injection_violations("none");
        let lossy = misreported_injection_violations("uniform:rate=0");
        assert!(lossy > 0);
        assert_eq!(clean, lossy + 9);
    }

    #[test]
    fn an_oversize_payload_is_refused_at_inject() {
        // Accepted, this payload would panic the first Stage 4 encode of
        // the following `run_until_drained`.
        let inject = |len: usize| {
            let payload = vec!["7"; len].join(",");
            format!(r#"{{"op":"inject","node":0,"round":0,"payload":[{payload}]}}"#)
        };
        let mut s = Service::new();
        ok(&s.handle_line(
            r#"{"op":"init","topology":"grid(3x3)","protocol":"stream-seq","seed":1}"#,
        ));
        let resp = s.handle_line(&inject(70_000));
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false), "{resp}");
        let error = doc.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("limit of 65521 bytes"), "{error}");
        // Nothing was queued: the drain has no round-0 packet to start.
        let drain = Json::parse(&s.handle_line(r#"{"op":"run_until_drained"}"#)).unwrap();
        assert_eq!(drain.get("ok").and_then(Json::as_bool), Some(false));
        // A payload of exactly the limit is carried end to end.
        ok(&s.handle_line(&inject(MAX_PAYLOAD_BYTES)));
        let drain = ok(&s.handle_line(r#"{"op":"run_until_drained"}"#));
        assert_eq!(drain.get("completed").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn add_node_extends_the_topology_before_start() {
        let mut s = Service::new();
        ok(&s.handle_line(
            r#"{"op":"init","topology":"path(n=4)","protocol":"stream-seq","seed":3}"#,
        ));
        let an = ok(&s.handle_line(r#"{"op":"add_node","neighbors":[3]}"#));
        assert_eq!(an.get("node").and_then(Json::as_u64), Some(4));
        assert_eq!(an.get("n").and_then(Json::as_u64), Some(5));
        ok(&s.handle_line(r#"{"op":"inject","node":4,"round":0,"payload":[1]}"#));
        let drain = ok(&s.handle_line(r#"{"op":"run_until_drained","max_rounds":200000}"#));
        assert_eq!(drain.get("completed").and_then(Json::as_bool), Some(true));
        // Frozen once running.
        let resp = s.handle_line(r#"{"op":"add_node","neighbors":[0]}"#);
        let doc = Json::parse(&resp).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    }
}
