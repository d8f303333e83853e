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
//! * [`run_protocol_on_graph`] is the one driver: validate options,
//!   build nodes, run the session, verify delivery against the
//!   ground-truth key set, and assemble a [`SessionReport`].
//! * `kbcast-bench`'s sweep layer fans seeds of this driver across
//!   worker threads.
//!
//! Adding an algorithm (e.g. a collision-detection variant in the
//! style of Ghaffari–Haeupler–Khabbazian) means implementing
//! [`BroadcastProtocol`] — node construction, a round cap, a delivered
//! accessor — and inheriting the driver, the verification and the
//! whole sweep/table toolchain for free.

use radio_net::dyntopo::{BuiltTopology, StaticTopology, TopologyModel};
use radio_net::engine::{CdModel, Engine, Node};
use radio_net::error::Error;
use radio_net::faults::{FaultModel, NoFaults};
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
    /// Generic over the engine's fault model so the same drive serves
    /// clean ([`NoFaults`]) and fault-injected sessions, over the
    /// topology model so a [`RunOptions::churn`] session reuses the
    /// same drive (static sessions monomorphize over
    /// [`StaticTopology`], the exact pre-churn loop), and over the
    /// observer so the driver can tee the protocol's own observer with
    /// a [`VerifyStack`] under [`RunOptions::verify`].
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
    /// fault model, no [`RunOptions::churn`]): checkers
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
/// # Errors
///
/// Returns [`Error::InvalidParameter`] for `max_rounds == Some(0)` —
/// checked before any engine state is constructed — and propagates
/// engine-construction failures.
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
    run_protocol_on_graph_with_faults(protocol, graph, workload, seed, options, NoFaults)
}

/// [`run_protocol_on_graph`] with an injected fault model (see
/// [`radio_net::faults`]): the engine is driven with `faults` hooked
/// into every round, while everything else — validation, delivery
/// verification, reporting — is identical. With [`NoFaults`] this *is*
/// `run_protocol_on_graph`, bit for bit.
///
/// Runtime-configured experiments typically parse a
/// [`radio_net::faults::FaultSpec`] and pass the
/// [`radio_net::faults::BuiltFaults`] it builds.
///
/// # Errors
///
/// As [`run_protocol_on_graph`].
///
/// # Panics
///
/// Panics if the workload's node count differs from the graph's.
pub fn run_protocol_on_graph_with_faults<P: BroadcastProtocol, F: FaultModel>(
    protocol: &P,
    graph: Graph,
    workload: &Workload,
    seed: u64,
    options: RunOptions,
    faults: F,
) -> Result<SessionReport<P::Meta>, Error> {
    options.validate()?;
    if options.churn.is_none() {
        // The static session monomorphizes over `StaticTopology`
        // (`ENABLED = false`): the reshape hook compiles out and the
        // loop is the exact pre-churn one.
        run_session_core(
            protocol,
            graph,
            workload,
            seed,
            options,
            faults,
            StaticTopology,
            None,
        )
    } else {
        // Build the dynamic model — validating its parameters — plus a
        // clone for the verifier: `ModelChecker` replays the replica
        // itself, so it re-derives every round against that round's
        // actual graph snapshot.
        let topo = options.churn.build(&graph, seed)?;
        let replica = topo.clone();
        run_session_core(
            protocol,
            graph,
            workload,
            seed,
            options,
            faults,
            topo,
            Some(replica),
        )
    }
}

/// The topology-generic session core behind
/// [`run_protocol_on_graph_with_faults`]: one body serves both the
/// static path (`T = StaticTopology`, `checker_topo = None`) and every
/// churned session (`T = BuiltTopology` plus an identically-seeded
/// checker replica).
#[allow(clippy::too_many_arguments)]
fn run_session_core<P: BroadcastProtocol, F: FaultModel, T: TopologyModel>(
    protocol: &P,
    graph: Graph,
    workload: &Workload,
    seed: u64,
    options: RunOptions,
    faults: F,
    topo: T,
    checker_topo: Option<BuiltTopology>,
) -> Result<SessionReport<P::Meta>, Error> {
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
    let k = expected.len();

    if k == 0 {
        // Nothing to broadcast: the protocol never starts (no node wakes).
        return Ok(SessionReport {
            n,
            k,
            diameter: net.diameter,
            max_degree: net.max_degree,
            success: true,
            rounds_total: 0,
            delivered_fraction: 1.0,
            stats: SimStats::new(),
            meta: P::Meta::default(),
            trace: None,
        });
    }

    let (nodes, awake) = protocol.build(&net, workload, seed);
    let mut obs = protocol.observer(&net);

    // Under `--verify`, give the checker stack its own copy of the
    // engine's two construction inputs (topology + initial awake set)
    // before the engine consumes them, so every round is re-derived
    // from independent state.
    let mut stack: Option<VerifyStack<P::Node>> = if options.verify {
        let mut stack = VerifyStack::new();
        stack.push(Box::new(match checker_topo {
            Some(replica) => ModelChecker::with_topology(
                graph.clone(),
                awake.iter().copied(),
                P::Cd::ENABLED,
                replica,
            ),
            None => ModelChecker::new_with_cd(graph.clone(), awake.iter().copied(), P::Cd::ENABLED),
        }));
        let clean = !F::ENABLED && options.churn.is_none();
        for check in protocol.verify_checks(&net, workload, clean) {
            stack.push(check);
        }
        Some(stack)
    } else {
        None
    };

    // Under `--trace`, run a trace collector alongside the protocol's
    // observer. The tee inherits the inner observer's `DETAIL` choice,
    // so tracing alone never turns on the engine's recording path — and
    // an untraced, unverified session takes the exact pre-existing
    // monomorphization (bit-identical hot loop).
    let mut tracer: Option<TraceCollector<P::Node>> = if options.trace {
        Some(TraceCollector::new(protocol.trace_probe(&net)))
    } else {
        None
    };

    let mut engine =
        Engine::<P::Node, F, P::Cd, T>::with_topology(graph, nodes, awake, faults, topo)?;
    let cap = options
        .max_rounds
        .unwrap_or_else(|| protocol.round_cap(&net, k));
    let end = match (stack.as_mut(), tracer.as_mut()) {
        (Some(stack), Some(collector)) => {
            let mut verified = Verified {
                inner: &mut obs,
                stack,
            };
            let mut tee = Traced {
                inner: &mut verified,
                collector,
            };
            protocol.drive(&mut engine, cap, &mut tee)
        }
        (Some(stack), None) => {
            let mut tee = Verified {
                inner: &mut obs,
                stack,
            };
            protocol.drive(&mut engine, cap, &mut tee)
        }
        (None, Some(collector)) => {
            let mut tee = Traced {
                inner: &mut obs,
                collector,
            };
            protocol.drive(&mut engine, cap, &mut tee)
        }
        (None, None) => protocol.drive(&mut engine, cap, &mut obs),
    };

    if let Some(stack) = stack.as_mut() {
        stack.session_end(engine.nodes(), &end);
        let count = stack.total_violations();
        if count > 0 {
            return Err(Error::VerificationFailed {
                seed,
                count,
                details: stack.summary(8),
            });
        }
    }

    // Verify delivery against the shared ground-truth key set.
    let mut delivered_sum = 0.0f64;
    let mut success = end.completed;
    for node in engine.nodes() {
        let mut got = protocol.delivered(node);
        got.sort_unstable();
        got.dedup();
        #[allow(clippy::cast_precision_loss)]
        {
            delivered_sum += got
                .iter()
                .filter(|key| expected.binary_search(key).is_ok())
                .count() as f64
                / k as f64;
        }
        if got != expected {
            success = false;
        }
    }

    let meta = protocol.finish(obs, engine.nodes(), &end);
    let trace = tracer.map(|collector| Box::new(collector.finish()));

    #[allow(clippy::cast_precision_loss)]
    Ok(SessionReport {
        n,
        k,
        diameter: net.diameter,
        max_degree: net.max_degree,
        success,
        rounds_total: end.rounds,
        delivered_fraction: delivered_sum / n as f64,
        stats: *engine.stats(),
        meta,
        trace,
    })
}
