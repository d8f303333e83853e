//! The service: a persistent simulated radio network behind the line
//! protocol.
//!
//! Ownership split: the [`Service`] owns engine *time* — rounds only
//! advance inside `tick` / `run_until_drained` requests, driven through
//! the library's [`Engine::run_streaming_until`] seam. Wall-clock
//! *ingestion* (requests arriving between runs) only mutates harness
//! state: `inject` queues arrivals into a [`TrafficSource`]
//! implementation ([`QueueSource`]) that the engine consults once per
//! round, exactly like the in-process streaming driver. The streaming
//! epoch protocol, the fault stack, the verify stack and the trace
//! collector therefore apply unchanged — the service adds no second
//! code path through the simulation.
//!
//! Determinism contract: a session is fully determined by the `init`
//! parameters plus the request sequence. The engine is built lazily at
//! the first run request with *exactly* the construction recipe of
//! [`kbcast::dynamic::run_streaming`] (same config derivation, same
//! per-node rng streams, same awake set), so a service session whose
//! faults are never flipped mid-run reproduces the library run
//! bit-for-bit on the same seed (pinned by `tests/service_vs_library.rs`).

use std::collections::HashMap;
use std::str::FromStr;

use kbcast::config::Config;
use kbcast::dynamic::{stamp_latencies, Arrival, DynamicNode, DynamicStageProbe};
use kbcast::packet::PacketKey;
use kbcast::runner::round_cap;
use kbcast::verify::EpochConservation;
use radio_net::dyntopo::{BuiltTopology, ChurnSpec, TopologyModel};
use radio_net::engine::{CdModel, Engine, NoCd, WithCd};
use radio_net::faults::{BuiltFaults, FaultModel, FaultSpec};
use radio_net::graph::{Graph, NodeId};
use radio_net::rng;
use radio_net::session::{
    NoopObserver, Observer, RoundDetail, RoundEvents, SessionEnd, TrafficSource,
};
use radio_net::stats::{nearest_rank, SimStats};
use radio_net::topology::Topology;
use radio_net::trace::{TraceCollector, Traced};
use radio_net::verify::{Check, ModelChecker, VerifyStack};

use crate::json::Json;
use crate::proto::{
    Envelope, InjectPacket, LatencyBlock, PacketState, Request, Response, StatsBlock,
};

/// A [`TrafficSource`] over a growable arrival schedule — the
/// request-fed counterpart of [`kbcast::dynamic::ScheduleSource`], with
/// identical injection semantics (per-round batches in request order,
/// waking sleeping nodes).
#[derive(Debug, Default)]
struct QueueSource {
    schedule: HashMap<u64, Vec<(usize, Vec<u8>)>>,
    remaining: usize,
}

impl QueueSource {
    fn push(&mut self, round: u64, node: usize, payload: Vec<u8>) {
        self.schedule
            .entry(round)
            .or_default()
            .push((node, payload));
        self.remaining += 1;
    }
}

impl TrafficSource<DynamicNode> for QueueSource {
    fn inject<F: FaultModel, C: CdModel, T: TopologyModel>(
        &mut self,
        engine: &mut Engine<DynamicNode, F, C, T>,
    ) {
        let round = engine.round();
        if let Some(batch) = self.schedule.remove(&round) {
            for (node, payload) in batch {
                engine.wake(NodeId::new(node));
                engine.node_mut(NodeId::new(node)).inject_at(payload, round);
                self.remaining -= 1;
            }
        }
    }

    fn exhausted(&self) -> bool {
        self.remaining == 0
    }
}

/// Observer tee for verified service runs: feeds the boxed
/// [`VerifyStack`] (radio-axiom checks) and the un-boxed
/// [`EpochConservation`] (kept outside the stack so `inject` requests
/// can grow its expected-key set via
/// [`EpochConservation::expect`]).
struct VerifyTee<'a> {
    stack: &'a mut VerifyStack<DynamicNode>,
    epoch: &'a mut EpochConservation,
}

impl Observer<DynamicNode> for VerifyTee<'_> {
    const DETAIL: bool = true;

    fn on_round(&mut self, events: &RoundEvents, nodes: &[DynamicNode]) {
        Observer::on_round(self.stack, events, nodes);
        Check::on_round(self.epoch, events, nodes);
    }

    fn on_round_detail(&mut self, detail: &RoundDetail<'_>, nodes: &[DynamicNode]) {
        Observer::on_round_detail(self.stack, detail, nodes);
        Check::on_round_detail(self.epoch, detail, nodes);
    }
}

/// Session parameters fixed at `init`, mutable until the first run
/// request builds the engine.
struct Pending {
    graph: Graph,
    seed: u64,
    faults: FaultSpec,
    verify: bool,
    trace: bool,
    cd: bool,
    churn: ChurnSpec,
}

/// The session's engine, monomorphized per the `init` collision-
/// detection flag. Exactly two variants exist — the no-CD default
/// (bit-identical to every pre-CD session) and the `WithCd` engine —
/// and all run requests dispatch through this enum once, so the hot
/// loop inside either variant stays fully monomorphized.
///
/// Both variants run over [`BuiltTopology`]: a frozen-graph session
/// uses [`BuiltTopology::Static`], whose reshape hook is a no-op that
/// draws no randomness, so unchurned transcripts stay bit-identical to
/// the pre-churn service.
enum LiveEngine {
    NoCd(Engine<DynamicNode, BuiltFaults, NoCd, BuiltTopology>),
    Cd(Engine<DynamicNode, BuiltFaults, WithCd, BuiltTopology>),
}

impl LiveEngine {
    fn round(&self) -> u64 {
        match self {
            LiveEngine::NoCd(e) => e.round(),
            LiveEngine::Cd(e) => e.round(),
        }
    }

    fn stats(&self) -> &SimStats {
        match self {
            LiveEngine::NoCd(e) => e.stats(),
            LiveEngine::Cd(e) => e.stats(),
        }
    }

    fn graph(&self) -> &Graph {
        match self {
            LiveEngine::NoCd(e) => e.graph(),
            LiveEngine::Cd(e) => e.graph(),
        }
    }

    fn nodes(&self) -> &[DynamicNode] {
        match self {
            LiveEngine::NoCd(e) => e.nodes(),
            LiveEngine::Cd(e) => e.nodes(),
        }
    }

    fn faults_mut(&mut self) -> &mut BuiltFaults {
        match self {
            LiveEngine::NoCd(e) => e.faults_mut(),
            LiveEngine::Cd(e) => e.faults_mut(),
        }
    }

    /// [`Engine::run_streaming_until`] over whichever variant is live.
    /// The drain predicate sees the node slice instead of the engine so
    /// one caller-side closure serves both monomorphizations.
    fn run_streaming_until<O: Observer<DynamicNode>>(
        &mut self,
        horizon: u64,
        obs: &mut O,
        source: &mut QueueSource,
        mut drained: impl FnMut(&[DynamicNode]) -> bool,
    ) -> SessionEnd {
        match self {
            LiveEngine::NoCd(e) => {
                e.run_streaming_until(horizon, obs, source, |e| drained(e.nodes()))
            }
            LiveEngine::Cd(e) => {
                e.run_streaming_until(horizon, obs, source, |e| drained(e.nodes()))
            }
        }
    }
}

/// The live simulation once the engine exists.
struct Live {
    /// The protocol configuration the nodes were built with; sizes the
    /// default drain budget.
    cfg: Config,
    engine: LiveEngine,
    source: QueueSource,
    stack: Option<VerifyStack<DynamicNode>>,
    epoch: Option<EpochConservation>,
    tracer: Option<TraceCollector<DynamicNode>>,
}

enum Phase {
    /// No `init` yet.
    Uninit,
    /// Configured; the engine is built at the first `tick` /
    /// `run_until_drained`.
    Configured(Pending),
    /// Rounds have (possibly) executed.
    Running(Box<Live>),
}

/// One service session: the request dispatcher plus all simulation
/// state. [`Service::handle_line`] never panics on malformed input —
/// every failure is a structured error response and the session keeps
/// accepting requests.
pub struct Service {
    phase: Phase,
    /// Session parameters copied out of [`Pending`] when the engine is
    /// built (the `Running` phase still needs them for queries).
    seed: u64,
    horizon: u64,
    faults: FaultSpec,
    /// Full arrival log in request order. Because inject rounds are
    /// monotone, this is simultaneously schedule order — the order
    /// [`stamp_latencies`] needs for key reconstruction.
    arrivals: Vec<Arrival>,
    /// Per-node next sequence number — the service-side mirror of
    /// [`DynamicNode`]'s key assignment, final at request time.
    seq_next: Vec<u32>,
    /// Highest round any packet was injected at (monotonicity floor).
    last_inject_round: u64,
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
            faults: FaultSpec::None,
            arrivals: Vec::new(),
            seq_next: Vec::new(),
            last_inject_round: 0,
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
        let spec = match faults {
            None => FaultSpec::None,
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
        // Fail un-buildable fault specs now, not at the first run.
        if let Err(e) = spec.build(graph.len(), seed) {
            return err(format!("init: {e}"));
        }
        // Same eager validation for the churn spec's parameters.
        if let Err(e) = churn_spec.build(&graph, seed) {
            return err(format!("init: {e}"));
        }
        let n = graph.len() as u64;
        let diameter = graph.diameter().unwrap_or(0) as u64;
        let max_degree = graph.max_degree() as u64;
        self.seed = seed;
        self.horizon = horizon;
        self.faults = spec.clone();
        self.seq_next = vec![0; graph.len()];
        self.phase = Phase::Configured(Pending {
            graph,
            seed,
            faults: spec.clone(),
            verify: verify.unwrap_or_else(kbcast_bench::verify_from_env),
            trace: trace.unwrap_or_else(kbcast_bench::trace_from_env),
            cd: cd.unwrap_or(false),
            churn: churn_spec,
        });
        Response::InitAck {
            n,
            diameter,
            max_degree,
            protocol: PROTOCOL.to_string(),
            topology: topo.to_string(),
            faults: spec.to_string(),
            churn: (!churn_spec.is_none()).then(|| churn_spec.label()),
        }
    }

    fn add_node(&mut self, neighbors: &[usize]) -> Response {
        let pending = match &mut self.phase {
            Phase::Uninit => return err("add_node: no session (send init first)"),
            Phase::Running(_) => {
                return err("add_node: the first round has been scheduled; topology is frozen")
            }
            Phase::Configured(p) => p,
        };
        let n = pending.graph.len();
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
            Vec::with_capacity(pending.graph.edge_count() + neighbors.len());
        for u in 0..n {
            for &v in pending.graph.neighbors(NodeId::new(u)) {
                if u < v.index() {
                    edges.push((u, v.index()));
                }
            }
        }
        for &v in neighbors {
            edges.push((v, n));
        }
        match Graph::from_edges(n + 1, edges) {
            Ok(g) => pending.graph = g,
            Err(e) => return err(format!("add_node: {e}")),
        }
        self.seq_next.push(0);
        Response::AddNodeAck {
            node: n as u64,
            n: (n + 1) as u64,
        }
    }

    fn inject(&mut self, packets: Vec<InjectPacket>) -> Response {
        let (n, current) = match &self.phase {
            Phase::Uninit => return err("inject: no session (send init first)"),
            Phase::Configured(p) => (p.graph.len(), 0),
            Phase::Running(l) => (l.engine.graph().len(), l.engine.round()),
        };
        // Validate the whole batch before accepting any of it, so a
        // failed request leaves no partial state behind.
        let mut floor = self.last_inject_round.max(current);
        let mut resolved: Vec<(usize, u64, Vec<u8>)> = Vec::with_capacity(packets.len());
        for p in &packets {
            if p.node >= n {
                return err(format!(
                    "inject: node {} out of range (topology has {n} nodes)",
                    p.node
                ));
            }
            let round = p.round.unwrap_or(floor);
            if round < floor {
                return err(format!(
                    "inject: round {round} is in the past (rounds must be non-decreasing; \
                     current floor is {floor})"
                ));
            }
            if round >= self.horizon && round > 0 {
                return err(format!(
                    "inject: round {round} is at or beyond the horizon ({})",
                    self.horizon
                ));
            }
            floor = round;
            resolved.push((p.node, round, p.payload.clone()));
        }
        let accepted = resolved.len() as u64;
        for (node, round, payload) in resolved {
            let key = PacketKey {
                origin: node as u64,
                seq: self.seq_next[node],
            };
            self.seq_next[node] += 1;
            self.last_inject_round = round;
            self.arrivals.push(Arrival {
                round,
                node,
                payload: payload.clone(),
            });
            if let Phase::Running(live) = &mut self.phase {
                // Round-0 packets only exist pre-start (the floor is
                // the current round once running).
                live.source.push(round, node, payload);
                if let Some(epoch) = &mut live.epoch {
                    epoch.expect(key);
                }
            }
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
            Phase::Configured(p) => {
                if let Err(e) = spec.build(p.graph.len(), p.seed) {
                    return err(format!("set_faults: {e}"));
                }
                p.faults = spec.clone();
                0
            }
            Phase::Running(live) => {
                let n = live.engine.graph().len();
                match spec.build(n, self.seed) {
                    Ok(built) => *live.engine.faults_mut() = built,
                    Err(e) => return err(format!("set_faults: {e}")),
                }
                live.engine.round()
            }
        };
        self.faults = spec.clone();
        Response::SetFaultsAck {
            faults: spec.to_string(),
            round,
        }
    }

    /// Builds the engine if the session is still `Configured`,
    /// replicating the construction recipe of
    /// [`kbcast::dynamic::run_streaming`] exactly (see module docs).
    fn ensure_running(&mut self) -> Result<(), String> {
        let pending = match &self.phase {
            Phase::Uninit => return Err("no session (send init first)".into()),
            Phase::Running(_) => return Ok(()),
            Phase::Configured(p) => p,
        };
        if !self.arrivals.iter().any(|a| a.round == 0) {
            return Err(
                "at least one packet must be injected at round 0 to wake the network".into(),
            );
        }
        let n = pending.graph.len();
        let Some(diameter) = pending.graph.diameter() else {
            return Err("the topology is disconnected".into());
        };
        let cfg = Config::for_network(n, diameter, pending.graph.max_degree());
        let mut initial: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n];
        for a in &self.arrivals {
            if a.round == 0 {
                initial[a.node].push(a.payload.clone());
            }
        }
        let awake: Vec<NodeId> = (0..n)
            .filter(|&i| !initial[i].is_empty())
            .map(NodeId::new)
            .collect();
        let nodes: Vec<DynamicNode> = (0..n)
            .map(|i| {
                DynamicNode::new(
                    cfg,
                    i as u64,
                    std::mem::take(&mut initial[i]),
                    rng::stream(pending.seed, i as u64),
                )
            })
            .collect();
        let built = match pending.faults.build(n, pending.seed) {
            Ok(b) => b,
            Err(e) => return Err(format!("fault spec stopped building: {e}")),
        };
        // The engine's dynamic-topology model, built against the final
        // (post-add_node) graph; `BuiltTopology::Static` for frozen
        // sessions draws no randomness, so the pre-churn bit-identity
        // contract holds.
        let topo = match pending.churn.build(&pending.graph, pending.seed) {
            Ok(t) => t,
            Err(e) => return Err(format!("churn spec stopped building: {e}")),
        };
        let engine = if pending.cd {
            match Engine::<DynamicNode, BuiltFaults, WithCd, BuiltTopology>::with_topology(
                pending.graph.clone(),
                nodes,
                awake.iter().copied(),
                built,
                topo.clone(),
            ) {
                Ok(e) => LiveEngine::Cd(e),
                Err(e) => return Err(format!("engine construction failed: {e}")),
            }
        } else {
            match Engine::<DynamicNode, BuiltFaults, NoCd, BuiltTopology>::with_topology(
                pending.graph.clone(),
                nodes,
                awake.iter().copied(),
                built,
                topo.clone(),
            ) {
                Ok(e) => LiveEngine::NoCd(e),
                Err(e) => return Err(format!("engine construction failed: {e}")),
            }
        };
        let mut source = QueueSource::default();
        for a in &self.arrivals {
            if a.round > 0 {
                source.push(a.round, a.node, a.payload.clone());
            }
        }
        let (stack, epoch) = if pending.verify {
            let mut stack = VerifyStack::new();
            // A churned session hands the checker its own replica of
            // the topology model, so every round is re-derived against
            // that round's actual graph snapshot.
            stack.push(Box::new(if pending.churn.is_none() {
                ModelChecker::new_with_cd(pending.graph.clone(), awake.iter().copied(), pending.cd)
            } else {
                ModelChecker::with_topology(
                    pending.graph.clone(),
                    awake.iter().copied(),
                    pending.cd,
                    topo,
                )
            }));
            let mut expected: Vec<PacketKey> = Vec::with_capacity(self.arrivals.len());
            let mut seq_at = vec![0u32; n];
            for a in &self.arrivals {
                expected.push(PacketKey {
                    origin: a.node as u64,
                    seq: seq_at[a.node],
                });
                seq_at[a.node] += 1;
            }
            expected.sort_unstable();
            // `clean` gates the w.h.p. completeness invariant — only
            // claimed when the *initial* spec is fault-free and the
            // graph is frozen, matching the library driver.
            let clean = pending.faults.is_none() && pending.churn.is_none();
            (Some(stack), Some(EpochConservation::new(expected, clean)))
        } else {
            (None, None)
        };
        let tracer = pending
            .trace
            .then(|| TraceCollector::new(Box::new(DynamicStageProbe::new(cfg))));
        self.phase = Phase::Running(Box::new(Live {
            cfg,
            engine,
            source,
            stack,
            epoch,
            tracer,
        }));
        Ok(())
    }

    /// Runs the engine up to the absolute round `target`, stopping
    /// early at the drain condition when `drain` is set. Dispatches to
    /// the monomorphized observer combination the session was
    /// configured with — the same four-way tee as the library driver.
    fn run_span(&mut self, target: u64, drain: bool) -> SessionEnd {
        let k = self.arrivals.len();
        let Phase::Running(live) = &mut self.phase else {
            unreachable!("run_span is only called on running sessions");
        };
        let Live {
            engine,
            source,
            stack,
            epoch,
            tracer,
            ..
        } = &mut **live;
        let pred =
            move |nodes: &[DynamicNode]| drain && nodes.iter().all(|nd| nd.delivered_count() == k);
        match (stack, tracer) {
            (Some(stack), Some(tracer)) => {
                let mut tee = VerifyTee {
                    stack,
                    epoch: epoch.as_mut().expect("verify implies epoch checker"),
                };
                let mut obs = Traced {
                    inner: &mut tee,
                    collector: tracer,
                };
                engine.run_streaming_until(target, &mut obs, source, pred)
            }
            (Some(stack), None) => {
                let mut obs = VerifyTee {
                    stack,
                    epoch: epoch.as_mut().expect("verify implies epoch checker"),
                };
                engine.run_streaming_until(target, &mut obs, source, pred)
            }
            (None, Some(tracer)) => {
                let mut noop = NoopObserver;
                let mut obs = Traced {
                    inner: &mut noop,
                    collector: tracer,
                };
                engine.run_streaming_until(target, &mut obs, source, pred)
            }
            (None, None) => engine.run_streaming_until(target, &mut NoopObserver, source, pred),
        }
    }

    fn delivered_min(&self) -> u64 {
        match &self.phase {
            Phase::Running(live) => live
                .engine
                .nodes()
                .iter()
                .map(|nd| nd.delivered_count() as u64)
                .min()
                .unwrap_or(0),
            _ => 0,
        }
    }

    fn is_drained(&self) -> bool {
        let k = self.arrivals.len() as u64;
        k > 0 && self.delivered_min() == k
    }

    fn tick(&mut self, rounds: u64) -> Response {
        if let Err(e) = self.ensure_running() {
            return err(e);
        }
        let current = match &self.phase {
            Phase::Running(live) => live.engine.round(),
            _ => unreachable!(),
        };
        let target = current.saturating_add(rounds).min(self.horizon);
        self.run_span(target, false);
        Response::TickAck {
            round: match &self.phase {
                Phase::Running(live) => live.engine.round(),
                _ => unreachable!(),
            },
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
        let (current, cfg) = match &self.phase {
            Phase::Running(live) => (live.engine.round(), live.cfg),
            _ => unreachable!(),
        };
        let budget = match max_rounds {
            Some(m) => current.saturating_add(m),
            None if self.horizon == u64::MAX => current
                .max(self.last_inject_round)
                .saturating_add(round_cap(&cfg, self.arrivals.len())),
            None => u64::MAX,
        };
        let target = budget.min(self.horizon);
        let end = self.run_span(target, true);
        Response::DrainAck {
            completed: end.completed && self.is_drained(),
            round: match &self.phase {
                Phase::Running(live) => live.engine.round(),
                _ => unreachable!(),
            },
        }
    }

    fn violations(&self) -> u64 {
        match &self.phase {
            Phase::Running(live) => {
                let stack = live.stack.as_ref().map_or(0, VerifyStack::total_violations);
                let epoch = live.epoch.as_ref().map_or(0, |e| {
                    <EpochConservation as Check<DynamicNode>>::total_violations(e)
                });
                (stack + epoch) as u64
            }
            _ => 0,
        }
    }

    fn latency_block(&self) -> (LatencyBlock, Vec<u64>) {
        let Phase::Running(live) = &self.phase else {
            return (LatencyBlock::default(), Vec::new());
        };
        let mut lats = stamp_latencies(&self.arrivals, live.engine.nodes());
        lats.sort_unstable();
        let mean = if lats.is_empty() {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                lats.iter().sum::<u64>() as f64 / lats.len() as f64
            }
        };
        (
            LatencyBlock {
                count: lats.len() as u64,
                mean,
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
        let (round, started, stats) = match &self.phase {
            Phase::Running(live) => (
                live.engine.round(),
                true,
                StatsBlock::of(live.engine.stats()),
            ),
            _ => (0, false, StatsBlock::default()),
        };
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
                let Phase::Running(live) = &self.phase else {
                    return err("query: packet drill-down needs a started session");
                };
                let key = PacketKey { origin, seq };
                let nodes = live.engine.nodes();
                let mut holders = 0u64;
                let mut last_stamp = 0u64;
                for nd in nodes {
                    if let Some(&(_, r)) = nd.stamps().iter().find(|&&(k, _)| k == key) {
                        holders += 1;
                        last_stamp = last_stamp.max(r);
                    }
                }
                let delivered = holders == nodes.len() as u64;
                let birth = self.birth_round(key);
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
            started,
            k: self.arrivals.len() as u64,
            delivered_min: self.delivered_min(),
            all_delivered: self.is_drained(),
            faults: self.faults.to_string(),
            violations: self.violations(),
            stats,
            latency,
            throughput,
            packet,
        }
    }

    /// Birth round of the packet with `key`, reconstructed from the
    /// arrival log the same way [`stamp_latencies`] does.
    fn birth_round(&self, key: PacketKey) -> Option<u64> {
        let mut seq = 0u32;
        for a in &self.arrivals {
            if a.node as u64 == key.origin {
                if seq == key.seq {
                    return Some(a.round);
                }
                seq += 1;
            }
        }
        None
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
        let trace = live.tracer.as_ref().map(|t| {
            let text = t.snapshot_summary().to_json();
            Json::parse(&text).expect("TraceSummary::to_json emits valid JSON")
        });
        Response::SnapshotAck {
            round: live.engine.round(),
            violations: self.violations(),
            trace,
        }
    }

    fn shutdown(&mut self) -> Response {
        let mut round = 0;
        if let Phase::Running(live) = &mut self.phase {
            round = live.engine.round();
            let end = SessionEnd {
                completed: true,
                rounds: round,
            };
            // End-of-session invariants (delivery completeness,
            // duplicate/forged keys) run now, like the library driver's
            // post-drive hook.
            let Live {
                engine,
                stack,
                epoch,
                ..
            } = &mut **live;
            let nodes: &[DynamicNode] = engine.nodes();
            if let Some(stack) = stack {
                stack.session_end(nodes, &end);
            }
            if let Some(epoch) = epoch {
                epoch.on_session_end(nodes, &end);
            }
        }
        let violations = self.violations();
        self.done = true;
        Response::ShutdownAck { round, violations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
