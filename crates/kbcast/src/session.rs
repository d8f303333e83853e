//! The unified broadcast session layer: every multiple-message
//! broadcast algorithm in this crate — the paper's coded four-stage
//! protocol, the BII baseline and the dynamic-arrival extension — runs
//! through one instrumented driver behind the [`BroadcastProtocol`]
//! trait.
//!
//! The layering is `engine → observer → protocol → sweep`:
//!
//! * [`radio_net::engine::Engine`] owns the round loop and the
//!   collision semantics; its session API reports per-round
//!   [`radio_net::session::RoundEvents`] to an observer.
//! * A protocol's [`BroadcastProtocol::Obs`] observer turns those
//!   events plus read-only node state into completion metadata (stage
//!   boundaries, collection phases) *while the run executes*, instead
//!   of re-deriving them from node internals afterwards.
//! * A session is described by one [`RunOptions`] value: round cap,
//!   verify, trace, and the adversity specs
//!   ([`RunOptions::faults`], [`RunOptions::churn`]).
//! * [`LiveSession`] is the one place a session is assembled. `build`
//!   probes the network, builds the engine's [`BuiltFaults`] and
//!   [`BuiltTopology`] from the specs (empty specs build the clean
//!   channel and the frozen graph) and whether the session is clean,
//!   and constructs the nodes, the observer, the verify stack, the
//!   trace collector and the engine; `run` drives any [`Drive`]
//!   through that observer stack; `finish` runs the end-of-session
//!   checks, verifies delivery against the ground-truth key set and
//!   assembles a [`SessionReport`].
//! * [`run_protocol_on_graph`] is the one driver: validate options,
//!   build, run the protocol's own drive and finish. The line-protocol
//!   service (`kbcast-serve`) holds a `LiveSession` of the streaming
//!   protocol instead and runs it one request span at a time.
//! * `kbcast-bench`'s sweep layer fans seeds of this driver across
//!   worker threads.
//!
//! Adding an algorithm (e.g. a collision-detection variant in the
//! style of Ghaffari–Haeupler–Khabbazian) means implementing
//! [`BroadcastProtocol`] — node construction, a round cap, a delivered
//! accessor — and inheriting the driver, the verification and the
//! whole sweep/table toolchain for free.

use radio_net::dyntopo::{BuiltTopology, TopologyModel};
use radio_net::engine::{CdModel, Engine, Node};
use radio_net::error::Error;
use radio_net::faults::{BuiltFaults, FaultModel};
use radio_net::graph::{Graph, NodeId};
use radio_net::session::{Observer, SessionEnd};
use radio_net::stats::SimStats;
use radio_net::topology::Topology;
use radio_net::trace::{SingleStage, StageProbe, TraceCollector, TraceReport, Traced};
use radio_net::verify::{Check, ModelChecker, Verified, VerifyStack};

use crate::packet::PacketKey;
use crate::runner::{RunOptions, Workload};

/// Ground-truth parameters of the network a session runs on, probed
/// from the generated graph (protocol nodes never see these — they
/// work from the configured bounds).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetParams {
    /// Number of nodes.
    pub n: usize,
    /// True diameter (0 for a disconnected or single-node graph).
    pub diameter: usize,
    /// True maximum degree.
    pub max_degree: usize,
}

impl NetParams {
    /// Probes `graph` for its session-relevant parameters.
    #[must_use]
    pub fn of_graph(graph: &Graph) -> Self {
        NetParams {
            n: graph.len(),
            diameter: graph.diameter().unwrap_or(0),
            max_degree: graph.max_degree(),
        }
    }
}

/// A multiple-message broadcast algorithm, as seen by the session
/// driver: how to build its engine nodes from a workload, how long to
/// let it run, which observer instruments it, and how to read delivery
/// results and completion metadata back out.
pub trait BroadcastProtocol {
    /// The per-node protocol state machine.
    type Node: Node;
    /// The channel model this protocol assumes: [`radio_net::NoCd`]
    /// for the paper's silence-equals-collision model (every protocol
    /// predating the CD extension), [`radio_net::WithCd`] for
    /// collision-detection protocols in the
    /// Ghaffari–Haeupler–Khabbazian style. The driver builds the
    /// engine — and configures the [`ModelChecker`]'s CD axiom — from
    /// this type, so a protocol can never run on the wrong channel.
    type Cd: CdModel;
    /// The observer that instruments a session of this protocol.
    type Obs: Observer<Self::Node>;
    /// Protocol-specific completion metadata assembled by
    /// [`BroadcastProtocol::finish`]; `Default` supplies the value for
    /// trivial (`k == 0`) sessions.
    type Meta: Default;

    /// Short stable name for tables and logs.
    fn name(&self) -> &'static str;

    /// Builds one state machine per node plus the initially-awake set.
    /// All randomness must derive from `seed` so runs are reproducible.
    fn build(
        &self,
        net: &NetParams,
        workload: &Workload,
        seed: u64,
    ) -> (Vec<Self::Node>, Vec<NodeId>);

    /// The observer instrumenting this session.
    fn observer(&self, net: &NetParams) -> Self::Obs;

    /// Default round cap when [`RunOptions::max_rounds`] is unset.
    fn round_cap(&self, net: &NetParams, k: usize) -> u64;

    /// The sorted, duplicate-free key set every node must end up
    /// holding. Defaults to the workload's keys; protocols with
    /// out-of-band arrivals override this.
    fn expected_keys(&self, workload: &Workload) -> Vec<PacketKey> {
        workload.keys()
    }

    /// The packet keys `node` holds at the end of the session (order
    /// and duplicates are irrelevant; the driver sorts and dedups).
    fn delivered(&self, node: &Self::Node) -> Vec<PacketKey>;

    /// Runs the session. The default drives
    /// [`Engine::run_session`] until every node reports
    /// [`Node::is_done`]; protocols with external events (dynamic
    /// arrivals) override this with a custom control hook.
    ///
    /// Sessions call it on [`BuiltFaults`] and [`BuiltTopology`]; it
    /// stays generic over the fault and topology models so a harness
    /// can drive an engine of its own, and over the observer so the
    /// driver can tee the protocol's own observer with a
    /// [`VerifyStack`] under [`RunOptions::verify`].
    fn drive<F: FaultModel, T: TopologyModel, O: Observer<Self::Node>>(
        &self,
        engine: &mut Engine<Self::Node, F, Self::Cd, T>,
        cap: u64,
        obs: &mut O,
    ) -> SessionEnd {
        engine.run_session(cap, obs)
    }

    /// The stage probe labelling rounds for a structured trace (see
    /// [`radio_net::trace`]), used when [`RunOptions::trace`] is set.
    /// Defaults to a single `"run"` stage with no progress gauge;
    /// protocols with meaningful phases override this.
    fn trace_probe(&self, net: &NetParams) -> Box<dyn StageProbe<Self::Node>> {
        let _ = net;
        Box::new(SingleStage("run"))
    }

    /// Protocol-level invariant checkers to run alongside the
    /// model-conformance checker under [`RunOptions::verify`].
    ///
    /// `clean` is `true` when the session injects no adversity (no
    /// [`RunOptions::faults`], no [`RunOptions::churn`]): checkers
    /// may then also assert w.h.p. invariants that injected faults —
    /// or a graph that changes under the protocol — could legitimately
    /// break (e.g. unique leader election). Defaults to no extra
    /// checks.
    fn verify_checks(
        &self,
        net: &NetParams,
        workload: &Workload,
        clean: bool,
    ) -> Vec<Box<dyn Check<Self::Node>>> {
        let _ = (net, workload, clean);
        Vec::new()
    }

    /// Assembles the protocol's completion metadata from the observer
    /// and the final node states.
    fn finish(&self, obs: Self::Obs, nodes: &[Self::Node], end: &SessionEnd) -> Self::Meta;
}

/// Result of one session, common to every protocol; `meta` carries the
/// protocol-specific part (stage breakdown, batch records, …).
#[derive(Clone, Debug)]
pub struct SessionReport<M> {
    /// Number of nodes.
    pub n: usize,
    /// Number of packets.
    pub k: usize,
    /// True diameter of the topology.
    pub diameter: usize,
    /// True maximum degree of the topology.
    pub max_degree: usize,
    /// Whether the session completed and every node holds every packet.
    pub success: bool,
    /// Rounds until the session ended (stop condition or cap).
    pub rounds_total: u64,
    /// Average fraction of packets delivered per node (1.0 on success).
    pub delivered_fraction: f64,
    /// Channel statistics from the engine.
    pub stats: SimStats,
    /// Protocol-specific completion metadata.
    pub meta: M,
    /// The structured round trace, present iff [`RunOptions::trace`]
    /// was set (boxed: a trace is much larger than the rest of the
    /// report and most sessions run without one).
    pub trace: Option<Box<TraceReport>>,
}

impl<M> SessionReport<M> {
    /// Amortized rounds per packet — the paper's headline metric.
    #[must_use]
    pub fn amortized_rounds_per_packet(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        {
            self.rounds_total as f64 / self.k.max(1) as f64
        }
    }
}

/// [`run_protocol_on_graph`] preceded by topology generation.
///
/// # Errors
///
/// Propagates topology-generation failures and invalid options.
///
/// # Panics
///
/// Panics if the workload's node count differs from the topology's.
pub fn run_protocol<P: BroadcastProtocol>(
    protocol: &P,
    topology: &Topology,
    workload: &Workload,
    seed: u64,
    options: RunOptions,
) -> Result<SessionReport<P::Meta>, Error> {
    let graph = topology.build(seed)?;
    run_protocol_on_graph(protocol, graph, workload, seed, options)
}

/// The one session driver: validates `options`, builds the protocol's
/// nodes, runs the observed session, verifies delivery against the
/// ground-truth key set and reports.
///
/// The ground-truth key set is built exactly once (no payload clones)
/// and shared by the per-node verification; success additionally
/// requires the protocol's own stop condition to have held within the
/// round cap.
///
/// Every session runs the [`BuiltFaults`] and [`BuiltTopology`] its
/// specs build; empty specs give the clean channel, whose rounds take
/// the engine's word-parallel path, and the frozen graph.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for `max_rounds == Some(0)` and
/// for invalid fault or churn parameters — checked before any engine
/// state is constructed — and propagates engine-construction failures.
/// With [`RunOptions::verify`] set, returns
/// [`Error::VerificationFailed`] (carrying the seed and the first
/// violations) if the online model/invariant checkers flag anything.
///
/// # Panics
///
/// Panics if the workload's node count differs from the graph's.
pub fn run_protocol_on_graph<P: BroadcastProtocol>(
    protocol: &P,
    graph: Graph,
    workload: &Workload,
    seed: u64,
    options: RunOptions,
) -> Result<SessionReport<P::Meta>, Error> {
    options.validate()?;
    let mut session =
        LiveSession::<P::Node, P::Cd, P::Obs>::build(protocol, graph, workload, seed, &options)?;
    if session.expected.is_empty() {
        // Nothing to broadcast: the protocol never starts (no node
        // wakes).
        return Ok(SessionReport {
            n: session.net.n,
            k: 0,
            diameter: session.net.diameter,
            max_degree: session.net.max_degree,
            success: true,
            rounds_total: 0,
            delivered_fraction: 1.0,
            stats: SimStats::new(),
            meta: P::Meta::default(),
            trace: None,
        });
    }
    let cap = session.cap;
    let end = session.run(ProtocolDrive { protocol, cap });
    session.finish(protocol, &end)
}

/// One span of engine time, run through whichever observer a
/// [`LiveSession`]'s verify and trace options put together. A trait
/// rather than a closure, because a closure cannot be generic over that
/// observer type.
pub trait Drive<N: Node, C: CdModel> {
    /// Advances `engine`, reporting every round to `obs`.
    fn drive<O: Observer<N>>(
        self,
        engine: &mut Engine<N, BuiltFaults, C, BuiltTopology>,
        obs: &mut O,
    ) -> SessionEnd;
}

/// A protocol's own [`BroadcastProtocol::drive`], up to the round cap.
struct ProtocolDrive<'p, P> {
    protocol: &'p P,
    cap: u64,
}

impl<P: BroadcastProtocol> Drive<P::Node, P::Cd> for ProtocolDrive<'_, P> {
    fn drive<O: Observer<P::Node>>(
        self,
        engine: &mut Engine<P::Node, BuiltFaults, P::Cd, BuiltTopology>,
        obs: &mut O,
    ) -> SessionEnd {
        self.protocol.drive(engine, self.cap, obs)
    }
}

/// A session assembled and ready to run: a protocol's nodes on an
/// engine, its observer and — as [`RunOptions`] ask — the verify stack
/// and the trace collector. This is the one place a session is put
/// together. [`run_protocol_on_graph`] builds one, runs the protocol's
/// drive through it and finishes it; the line-protocol service keeps
/// one alive across requests and runs it a span at a time.
///
/// The type parameters are the protocol's node, channel and observer
/// types, not the protocol itself, so a session does not borrow the
/// protocol value it was built from.
pub struct LiveSession<N: Node, C: CdModel, O: Observer<N>> {
    net: NetParams,
    seed: u64,
    /// The sorted ground-truth key set at build time.
    expected: Vec<PacketKey>,
    /// The round cap of the protocol's own drive.
    cap: u64,
    engine: Engine<N, BuiltFaults, C, BuiltTopology>,
    obs: O,
    stack: Option<VerifyStack<N>>,
    tracer: Option<TraceCollector<N>>,
}

impl<N: Node, C: CdModel, O: Observer<N>> LiveSession<N, C, O> {
    /// Builds a session of `protocol` on `graph` as `options` describe
    /// it: probes the network, builds the engine's [`BuiltFaults`] from
    /// [`RunOptions::faults`] and its [`BuiltTopology`] from
    /// [`RunOptions::churn`], the protocol's nodes and observer, under
    /// [`RunOptions::verify`] the [`ModelChecker`] (with its own
    /// replica of the topology model) plus the protocol's
    /// [`BroadcastProtocol::verify_checks`], under [`RunOptions::trace`]
    /// a [`TraceCollector`], and the engine.
    ///
    /// The session is *clean* — the protocol's checks may assert the
    /// w.h.p. invariants adversity could break — exactly when the
    /// options name neither faults nor churn.
    ///
    /// # Errors
    ///
    /// Propagates fault-model, churn-model and engine-construction
    /// failures.
    ///
    /// # Panics
    ///
    /// Panics if the workload's node count differs from the graph's.
    pub fn build<P: BroadcastProtocol<Node = N, Cd = C, Obs = O>>(
        protocol: &P,
        graph: Graph,
        workload: &Workload,
        seed: u64,
        options: &RunOptions,
    ) -> Result<Self, Error> {
        let n = graph.len();
        assert_eq!(
            workload.len(),
            n,
            "workload shaped for {} nodes, graph has {n}",
            workload.len()
        );
        let net = NetParams::of_graph(&graph);
        let expected = protocol.expected_keys(workload);
        debug_assert!(
            expected.windows(2).all(|w| w[0] < w[1]),
            "expected_keys must be sorted and duplicate-free"
        );
        let faults = options.faults.build(n, seed)?;
        let topo = options.churn.build(&graph, seed)?;
        let clean = options.faults.is_none() && options.churn.is_none();
        let (nodes, awake) = protocol.build(&net, workload, seed);
        let obs = protocol.observer(&net);

        // The checker stack gets its own copy of the engine's
        // construction inputs (topology, initial awake set and an
        // identically seeded topology model), so every round is
        // re-derived from independent state.
        let stack = if options.verify {
            let mut stack = VerifyStack::new();
            let awake = awake.iter().copied();
            let replica = options.churn.build(&graph, seed)?;
            stack.push(Box::new(ModelChecker::with_topology(
                graph.clone(),
                awake,
                C::ENABLED,
                replica,
            )));
            for check in protocol.verify_checks(&net, workload, clean) {
                stack.push(check);
            }
            Some(stack)
        } else {
            None
        };
        let tracer = options
            .trace
            .then(|| TraceCollector::new(protocol.trace_probe(&net)));

        let engine = Engine::with_topology(graph, nodes, awake, faults, topo)?;
        let cap = options
            .max_rounds
            .unwrap_or_else(|| protocol.round_cap(&net, expected.len()));
        Ok(LiveSession {
            net,
            seed,
            expected,
            cap,
            engine,
            obs,
            stack,
            tracer,
        })
    }

    /// Runs `drive` through the session's observer: the protocol's own,
    /// teed with the verify stack and the trace collector when they
    /// exist. The tees inherit the inner observer's `DETAIL` choice, so
    /// tracing alone never turns on the engine's recording path, and an
    /// untraced, unverified session runs the bare observer's loop.
    pub fn run<D: Drive<N, C>>(&mut self, drive: D) -> SessionEnd {
        let LiveSession {
            engine,
            obs,
            stack,
            tracer,
            ..
        } = self;
        match (stack, tracer) {
            (Some(stack), Some(collector)) => {
                let mut verified = Verified { inner: obs, stack };
                let mut tee = Traced {
                    inner: &mut verified,
                    collector,
                };
                drive.drive(engine, &mut tee)
            }
            (Some(stack), None) => drive.drive(engine, &mut Verified { inner: obs, stack }),
            (None, Some(collector)) => drive.drive(
                engine,
                &mut Traced {
                    inner: obs,
                    collector,
                },
            ),
            (None, None) => drive.drive(engine, obs),
        }
    }

    /// The probed network.
    #[must_use]
    pub fn net(&self) -> NetParams {
        self.net
    }

    /// The engine, for reading rounds, stats and node state.
    #[must_use]
    pub fn engine(&self) -> &Engine<N, BuiltFaults, C, BuiltTopology> {
        &self.engine
    }

    /// The engine's fault model, swappable between runs.
    pub fn faults_mut(&mut self) -> &mut BuiltFaults {
        self.engine.faults_mut()
    }

    /// The trace collector, when [`RunOptions::trace`] was set.
    #[must_use]
    pub fn tracer(&self) -> Option<&TraceCollector<N>> {
        self.tracer.as_ref()
    }

    /// Tells the verify stack the harness scheduled one more packet at
    /// `node` (see [`Check::on_inject`]).
    pub fn on_inject(&mut self, node: NodeId) {
        if let Some(stack) = &mut self.stack {
            stack.on_inject(node);
        }
    }

    /// Violations the verify stack found so far (0 without verify).
    #[must_use]
    pub fn violations(&self) -> usize {
        self.stack.as_ref().map_or(0, VerifyStack::total_violations)
    }

    /// Runs the verify stack's end-of-session checks.
    pub fn end_checks(&mut self, end: &SessionEnd) {
        if let Some(stack) = &mut self.stack {
            stack.session_end(self.engine.nodes(), end);
        }
    }

    /// Ends the session: runs the end-of-session checks, verifies every
    /// node's holdings against the ground-truth key set and assembles
    /// the report. Success requires the drive's stop condition to have
    /// held (`end.completed`) and every node to hold exactly the
    /// expected keys.
    ///
    /// # Errors
    ///
    /// Returns [`Error::VerificationFailed`] (carrying the seed and the
    /// first violations) if the verify stack flagged anything.
    pub fn finish<P: BroadcastProtocol<Node = N, Obs = O>>(
        mut self,
        protocol: &P,
        end: &SessionEnd,
    ) -> Result<SessionReport<P::Meta>, Error> {
        self.end_checks(end);
        if let Some(stack) = &self.stack {
            let count = stack.total_violations();
            if count > 0 {
                return Err(Error::VerificationFailed {
                    seed: self.seed,
                    count,
                    details: stack.summary(8),
                });
            }
        }

        let k = self.expected.len();
        let mut delivered_sum = 0.0f64;
        let mut success = end.completed;
        for node in self.engine.nodes() {
            let mut got = protocol.delivered(node);
            got.sort_unstable();
            got.dedup();
            #[allow(clippy::cast_precision_loss)]
            {
                delivered_sum += got
                    .iter()
                    .filter(|key| self.expected.binary_search(key).is_ok())
                    .count() as f64
                    / k as f64;
            }
            if got != self.expected {
                success = false;
            }
        }

        let meta = protocol.finish(self.obs, self.engine.nodes(), end);
        let trace = self.tracer.map(|collector| Box::new(collector.finish()));
        #[allow(clippy::cast_precision_loss)]
        Ok(SessionReport {
            n: self.net.n,
            k,
            diameter: self.net.diameter,
            max_degree: self.net.max_degree,
            success,
            rounds_total: end.rounds,
            delivered_fraction: delivered_sum / self.net.n as f64,
            stats: *self.engine.stats(),
            meta,
            trace,
        })
    }
}
