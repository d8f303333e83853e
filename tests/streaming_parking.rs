//! Parking is invisible for every protocol that parks: a session run
//! with the nodes' activity hints must be bit-identical to the same
//! session run with every node polled in every awake round.
//!
//! Each session runs twice through the engine on nodes built by the
//! protocol's own [`BroadcastProtocol::build`]: once with a wrapper that
//! forwards every [`Node`] method (so the node parks on its own hints,
//! and the engine re-asks a parked node after each reception), and once
//! with one that forwards every method except [`Node::next_activity`]
//! (so it never parks). Both wrappers count polls. The two runs must
//! agree on rounds, completion, channel statistics and every node's
//! outputs, and the parked run must poll strictly less.
//!
//! Three protocols park: the streaming `DynamicNode` (with a test-local
//! control hook on `Engine::run_session_with` injecting mid-run
//! arrivals through `Engine::node_mut`, which voids a park), the
//! one-shot coded `KbcastNode` and the `BiiNode` baseline. Each runs
//! on three topologies and three seeds under five channel conditions:
//! clean, uniform loss, crashes (leaving streaming stragglers that
//! decode foreign batches), jamming and edge churn.

use std::collections::VecDeque;
use std::fmt::Debug;

use radio_kbcast::kbcast::baseline::bii::{BiiNode, BiiProtocol};
use radio_kbcast::kbcast::dynamic::{Arrival, BatchRecord, DynamicNode, DynamicProtocol};
use radio_kbcast::kbcast::node::{KbcastNode, TxCounts};
use radio_kbcast::kbcast::packet::{Packet, PacketKey};
use radio_kbcast::kbcast::runner::{CodedProtocol, Workload};
use radio_kbcast::kbcast::session::{BroadcastProtocol, NetParams};
use radio_kbcast::protocols::bfs::BfsLabel;
use radio_kbcast::radio_net::dyntopo::{BuiltTopology, ChurnSpec};
use radio_kbcast::radio_net::engine::{Engine, NoCd, Node};
use radio_kbcast::radio_net::faults::{BuiltFaults, FaultSpec};
use radio_kbcast::radio_net::graph::{Graph, NodeId};
use radio_kbcast::radio_net::session::{NoopObserver, SessionControl, SessionEnd};
use radio_kbcast::radio_net::stats::SimStats;
use radio_kbcast::radio_net::topology::Topology;

const SEEDS: [u64; 3] = [1, 2, 3];
const HORIZON: u64 = 40_000;
/// Round budget of a one-shot session: enough for the clean ones to
/// finish; a faulted session that cannot finish runs it out on both
/// sides alike.
const ONESHOT_CAP: u64 = 30_000;
/// Packets of a one-shot session, spread round-robin.
const K: usize = 6;

const CLEAN: &str = "none";
const UNIFORM: &str = "uniform:rate=0.05";
const JAM: &str = "jam:budget=200";
const CHURN: &str = "edge:rho=0.02,heal=0.25";

/// A node behind a poll counter. With `park` it forwards every
/// [`Node`] method; without, it keeps the never-park default of
/// [`Node::next_activity`].
struct Probe<N> {
    node: N,
    park: bool,
    polls: u64,
}

impl<N: Node> Node for Probe<N> {
    type Msg = N::Msg;

    fn poll(&mut self, round: u64) -> Option<Self::Msg> {
        self.polls += 1;
        self.node.poll(round)
    }

    fn receive(&mut self, round: u64, msg: &Self::Msg) {
        self.node.receive(round, msg);
    }

    fn is_done(&self) -> bool {
        self.node.is_done()
    }

    fn collision_heard(&mut self, round: u64) {
        self.node.collision_heard(round);
    }

    fn next_activity(&self, round: u64) -> u64 {
        if self.park {
            self.node.next_activity(round)
        } else {
            round + 1
        }
    }
}

type ProbeEngine<N> = Engine<Probe<N>, BuiltFaults, NoCd, BuiltTopology>;

/// Everything a session leaves behind that parking could disturb.
#[derive(Debug, PartialEq)]
struct Outcome<O> {
    end: SessionEnd,
    stats: SimStats,
    nodes: Vec<O>,
}

/// Runs `nodes` on `graph` under the `fault`/`churn` specs, parked or
/// not, with `drive` running the session; returns the outcome (each
/// node read through `out`) and the total poll count.
fn session<N: Node, O>(
    graph: Graph,
    (nodes, awake): (Vec<N>, Vec<NodeId>),
    seed: u64,
    (fault, churn): (&str, &str),
    park: bool,
    drive: impl FnOnce(&mut ProbeEngine<N>) -> SessionEnd,
    out: impl Fn(&N) -> O,
) -> (Outcome<O>, u64) {
    let n = graph.len();
    let nodes = nodes
        .into_iter()
        .map(|node| Probe {
            node,
            park,
            polls: 0,
        })
        .collect();
    let faults: BuiltFaults = fault
        .parse::<FaultSpec>()
        .expect("fault spec parses")
        .build(n, seed)
        .expect("fault model builds");
    let topo: BuiltTopology = churn
        .parse::<ChurnSpec>()
        .expect("churn spec parses")
        .build(&graph, seed)
        .expect("churn model builds");
    let mut engine: ProbeEngine<N> =
        Engine::with_topology(graph, nodes, awake, faults, topo).expect("engine");
    let end = drive(&mut engine);
    let outcome = Outcome {
        end,
        stats: *engine.stats(),
        nodes: engine.nodes().iter().map(|p| out(&p.node)).collect(),
    };
    (outcome, engine.nodes().iter().map(|p| p.polls).sum())
}

/// Runs every topology and seed of one protocol under one channel
/// condition, parked and not, asserting that the outcomes agree and
/// that parking polls less; returns the parked outcomes.
fn assert_parking_invisible<O: PartialEq + Debug>(
    name: &str,
    condition: (&str, &str),
    run: impl Fn(&Topology, u64, (&str, &str), bool) -> (Outcome<O>, u64),
) -> Vec<Outcome<O>> {
    let topologies = [
        Topology::Grid2d { rows: 4, cols: 4 },
        Topology::Gnp { n: 16, p: 0.3 },
        Topology::Path { n: 8 },
    ];
    let (fault, churn) = condition;
    let mut outcomes = Vec::new();
    for topology in &topologies {
        for seed in SEEDS {
            let (parked, parked_polls) = run(topology, seed, condition, true);
            let (polled, polled_polls) = run(topology, seed, condition, false);
            assert_eq!(
                parked, polled,
                "{name} {topology:?} seed {seed} fault {fault} churn {churn}: \
                 parking changed the session"
            );
            assert!(
                parked_polls < polled_polls,
                "{name} {topology:?} seed {seed} fault {fault} churn {churn}: \
                 {parked_polls} parked polls vs {polled_polls} unparked"
            );
            outcomes.push(parked);
        }
    }
    outcomes
}

/// What a streaming node leaves behind.
#[derive(Debug, PartialEq)]
struct StreamOut {
    stamps: Vec<(PacketKey, u64)>,
    delivered: Vec<Packet>,
    history: Vec<BatchRecord>,
    collect_closes: Vec<(u32, u64)>,
    batch: u32,
}

/// Replays the arrivals after round 0 up to [`HORIZON`] under the rules
/// of the library's `ScheduleSource::run`: each wakes its node and
/// enters it through `node_mut`; the drain stop is checked from round 1.
fn replay(
    e: &mut ProbeEngine<DynamicNode>,
    mut pending: VecDeque<Arrival>,
    k: usize,
) -> SessionEnd {
    e.run_session_with(HORIZON, &mut NoopObserver, |e| {
        let round = e.round();
        if round > 0
            && pending.is_empty()
            && e.nodes().iter().all(|p| p.node.delivered_count() == k)
        {
            return SessionControl::Stop;
        }
        if round < HORIZON {
            while let Some(a) = pending.pop_front_if(|a| a.round == round) {
                e.wake(NodeId::new(a.node));
                e.node_mut(NodeId::new(a.node))
                    .node
                    .inject_at(a.payload, round);
            }
        }
        SessionControl::Continue
    })
}

/// Two round-0 packets, then one arrival every 900 rounds at a rotating
/// node (sorted by round, as [`replay`] expects).
fn schedule(n: usize) -> Vec<Arrival> {
    let mut out = vec![
        Arrival {
            round: 0,
            node: 0,
            payload: vec![0xA0],
        },
        Arrival {
            round: 0,
            node: n - 1,
            payload: vec![0xA1],
        },
    ];
    for i in 1..=12u8 {
        out.push(Arrival {
            round: 900 * u64::from(i),
            node: (5 * usize::from(i)) % n,
            payload: vec![0xB0, i],
        });
    }
    out
}

fn streaming(
    topology: &Topology,
    seed: u64,
    condition: (&str, &str),
    park: bool,
) -> (Outcome<StreamOut>, u64) {
    let graph = topology.build(seed).expect("topology builds");
    let n = graph.len();
    let arrivals = schedule(n);
    let protocol = DynamicProtocol {
        arrivals: &arrivals,
        config: None,
        horizon: HORIZON,
    };
    let built = protocol.build(
        &NetParams::of_graph(&graph),
        &protocol.initial_workload(n),
        seed,
    );
    let pending = arrivals.iter().filter(|a| a.round > 0).cloned().collect();
    let drive = |e: &mut ProbeEngine<DynamicNode>| replay(e, pending, arrivals.len());
    let out = |node: &DynamicNode| StreamOut {
        stamps: node.stamps().to_vec(),
        delivered: node.delivered().to_vec(),
        history: node.history().to_vec(),
        collect_closes: node.collect_closes().to_vec(),
        batch: node.batch(),
    };
    session(graph, built, seed, condition, park, drive, out)
}

/// A one-shot session of `protocol` with [`K`] packets spread
/// round-robin, run until every node is done or [`ONESHOT_CAP`].
fn oneshot<P: BroadcastProtocol, O>(
    protocol: &P,
    topology: &Topology,
    seed: u64,
    condition: (&str, &str),
    park: bool,
    out: impl Fn(&P::Node) -> O,
) -> (Outcome<O>, u64) {
    let graph = topology.build(seed).expect("topology builds");
    let built = protocol.build(
        &NetParams::of_graph(&graph),
        &Workload::round_robin(graph.len(), K),
        seed,
    );
    let drive = |e: &mut ProbeEngine<P::Node>| e.run_session(ONESHOT_CAP, &mut NoopObserver);
    session(graph, built, seed, condition, park, drive, out)
}

/// What a coded node leaves behind.
type CodedOut = (Vec<Packet>, TxCounts, Option<u64>, Option<BfsLabel>);

fn coded(
    topology: &Topology,
    seed: u64,
    condition: (&str, &str),
    park: bool,
) -> (Outcome<CodedOut>, u64) {
    let out = |node: &KbcastNode| {
        (
            node.packets(),
            node.tx_counts(),
            node.collection_finished_at(),
            node.bfs_label(),
        )
    };
    oneshot(
        &CodedProtocol::default(),
        topology,
        seed,
        condition,
        park,
        out,
    )
}

fn bii(
    topology: &Topology,
    seed: u64,
    condition: (&str, &str),
    park: bool,
) -> (Outcome<Vec<Packet>>, u64) {
    let out = |node: &BiiNode| node.known().cloned().collect();
    oneshot(
        &BiiProtocol::default(),
        topology,
        seed,
        condition,
        park,
        out,
    )
}

/// All three protocols under one channel condition; the streaming
/// outcomes are returned for condition-specific checks.
fn assert_all_invisible(condition: (&str, &str)) -> Vec<Outcome<StreamOut>> {
    let coded = assert_parking_invisible("coded", condition, coded);
    if condition == (CLEAN, CLEAN) {
        // The clean coded sessions run to completion.
        assert!(coded.iter().all(|o| o.end.completed));
    }
    assert_parking_invisible("bii", condition, bii);
    assert_parking_invisible("streaming", condition, streaming)
}

#[test]
fn parking_is_invisible_on_a_clean_channel() {
    let outcomes = assert_all_invisible((CLEAN, CLEAN));
    // The streaming sessions are long enough to pipeline several
    // batches.
    assert!(outcomes
        .iter()
        .all(|o| o.nodes.iter().any(|s| s.history.len() >= 3)));
}

#[test]
fn parking_is_invisible_under_uniform_loss() {
    assert_all_invisible((UNIFORM, CLEAN));
}

#[test]
fn parking_is_invisible_with_crash_stragglers() {
    // One-shot sessions crash from the start; streaming ones once
    // batches are flowing.
    let early = ("crash:frac=0.3,from=0,until=2000,down=1000", CLEAN);
    assert_parking_invisible("coded", early, coded);
    assert_parking_invisible("bii", early, bii);
    let late = ("crash:frac=0.3,from=3000,until=6000,down=4000", CLEAN);
    let outcomes = assert_parking_invisible("streaming", late, streaming);
    // Some streaming node ends behind the root's batch: it missed a
    // batch end and decoded later batches receive-only.
    assert!(outcomes.iter().any(|o| {
        let newest = o.nodes.iter().map(|s| s.batch).max().unwrap_or(0);
        o.nodes.iter().any(|s| s.batch < newest)
    }));
}

#[test]
fn parking_is_invisible_under_jamming() {
    let outcomes = assert_all_invisible((JAM, CLEAN));
    assert!(outcomes.iter().any(|o| o.stats.jammed > 0));
}

#[test]
fn parking_is_invisible_under_edge_churn() {
    assert_all_invisible((CLEAN, CHURN));
}
