//! Parking is invisible for the streaming protocol: a `DynamicNode`
//! session run with its activity hints must be bit-identical to the same
//! session run with every node polled in every awake round.
//!
//! Each session runs twice through the engine on nodes built by
//! [`DynamicProtocol`]: once with a wrapper that forwards every [`Node`]
//! method (so the node parks on its own hints), and once with one that
//! forwards every method except [`Node::next_activity`] (so it never
//! parks). Both wrappers count polls. A test-local [`TrafficSource`]
//! injects mid-run arrivals through `Engine::node_mut`, which voids a
//! park. The two runs must agree on rounds, channel statistics and every
//! node's stamps, deliveries, batch history and collection closes, over
//! three topologies, three seeds and four channel conditions (clean,
//! uniform loss, crashes that leave stragglers decoding foreign batches,
//! edge churn) — and the parked run must poll strictly less.

use radio_kbcast::kbcast::dynamic::{Arrival, BatchRecord, DynamicNode, DynamicProtocol};
use radio_kbcast::kbcast::packet::{Packet, PacketKey};
use radio_kbcast::kbcast::session::{BroadcastProtocol, NetParams};
use radio_kbcast::radio_net::dyntopo::{BuiltTopology, ChurnSpec, TopologyModel};
use radio_kbcast::radio_net::engine::{CdModel, Engine, NoCd, Node};
use radio_kbcast::radio_net::faults::{BuiltFaults, FaultModel, FaultSpec};
use radio_kbcast::radio_net::graph::NodeId;
use radio_kbcast::radio_net::session::{NoopObserver, TrafficSource};
use radio_kbcast::radio_net::stats::SimStats;
use radio_kbcast::radio_net::topology::Topology;

const SEEDS: [u64; 3] = [1, 2, 3];
const HORIZON: u64 = 40_000;

/// A [`DynamicNode`] behind a poll counter. With `park` it forwards
/// every [`Node`] method; without, it keeps the never-park default of
/// [`Node::next_activity`].
struct Probe {
    node: DynamicNode,
    park: bool,
    polls: u64,
}

impl Node for Probe {
    type Msg = <DynamicNode as Node>::Msg;

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

/// Replays `(round, node, payload)` arrivals after round 0: wakes the
/// node and injects through `node_mut`, as the service's queue does.
struct Arrivals {
    pending: Vec<Arrival>,
}

impl TrafficSource<Probe> for Arrivals {
    fn inject<F: FaultModel, C: CdModel, T: TopologyModel>(
        &mut self,
        engine: &mut Engine<Probe, F, C, T>,
    ) {
        let round = engine.round();
        while self.pending.first().is_some_and(|a| a.round == round) {
            let a = self.pending.remove(0);
            engine.wake(NodeId::new(a.node));
            engine
                .node_mut(NodeId::new(a.node))
                .node
                .inject_at(a.payload, round);
        }
    }

    fn exhausted(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Everything a session leaves behind that parking could disturb.
#[derive(Debug, PartialEq)]
struct Outcome {
    rounds: u64,
    stats: SimStats,
    stamps: Vec<Vec<(PacketKey, u64)>>,
    delivered: Vec<Vec<Packet>>,
    history: Vec<Vec<BatchRecord>>,
    collect_closes: Vec<Vec<(u32, u64)>>,
    batches: Vec<u32>,
}

/// Two round-0 packets, then one arrival every 900 rounds at a rotating
/// node (sorted by round, as [`Arrivals`] expects).
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

fn run(topology: &Topology, seed: u64, fault: &str, churn: &str, park: bool) -> (Outcome, u64) {
    let graph = topology.build(seed).expect("topology builds");
    let n = graph.len();
    let arrivals = schedule(n);
    let protocol = DynamicProtocol {
        arrivals: &arrivals,
        config: None,
        horizon: HORIZON,
    };
    let (nodes, awake) = protocol.build(
        &NetParams::of_graph(&graph),
        &protocol.initial_workload(n),
        seed,
    );
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
    let mut engine: Engine<Probe, BuiltFaults, NoCd, BuiltTopology> =
        Engine::with_topology(graph, nodes, awake, faults, topo).expect("engine");
    let k = arrivals.len();
    let mut source = Arrivals {
        pending: arrivals.into_iter().filter(|a| a.round > 0).collect(),
    };
    let end = engine.run_streaming_until(HORIZON, &mut NoopObserver, &mut source, |e| {
        e.nodes().iter().all(|p| p.node.delivered_count() == k)
    });
    let nodes = engine.nodes();
    let outcome = Outcome {
        rounds: end.rounds,
        stats: *engine.stats(),
        stamps: nodes.iter().map(|p| p.node.stamps().to_vec()).collect(),
        delivered: nodes.iter().map(|p| p.node.delivered().to_vec()).collect(),
        history: nodes.iter().map(|p| p.node.history().to_vec()).collect(),
        collect_closes: nodes
            .iter()
            .map(|p| p.node.collect_closes().to_vec())
            .collect(),
        batches: nodes.iter().map(|p| p.node.batch()).collect(),
    };
    (outcome, nodes.iter().map(|p| p.polls).sum())
}

/// Runs every topology and seed under one channel condition, asserting
/// parked ≡ unparked; returns the outcomes for condition-specific checks.
fn assert_parking_invisible(fault: &str, churn: &str) -> Vec<Outcome> {
    let topologies = [
        Topology::Grid2d { rows: 4, cols: 4 },
        Topology::Gnp { n: 16, p: 0.3 },
        Topology::Path { n: 8 },
    ];
    let mut outcomes = Vec::new();
    for topology in &topologies {
        for seed in SEEDS {
            let (parked, parked_polls) = run(topology, seed, fault, churn, true);
            let (polled, polled_polls) = run(topology, seed, fault, churn, false);
            assert_eq!(
                parked, polled,
                "{topology:?} seed {seed} fault {fault} churn {churn}: parking changed the session"
            );
            assert!(
                parked_polls < polled_polls,
                "{topology:?} seed {seed} fault {fault} churn {churn}: \
                 {parked_polls} parked polls vs {polled_polls} unparked"
            );
            outcomes.push(parked);
        }
    }
    outcomes
}

#[test]
fn parking_is_invisible_on_a_clean_channel() {
    let outcomes = assert_parking_invisible("none", "none");
    // The sessions are long enough to pipeline several batches.
    assert!(outcomes
        .iter()
        .all(|o| o.history.iter().any(|h| h.len() >= 3)));
}

#[test]
fn parking_is_invisible_under_uniform_loss() {
    assert_parking_invisible("uniform:rate=0.05", "none");
}

#[test]
fn parking_is_invisible_with_crash_stragglers() {
    let outcomes =
        assert_parking_invisible("crash:frac=0.3,from=3000,until=6000,down=4000", "none");
    // Some node ends behind the root's batch: it missed a batch end
    // and decoded later batches receive-only.
    assert!(outcomes.iter().any(|o| {
        let newest = o.batches.iter().max().copied().unwrap_or(0);
        o.batches.iter().any(|&b| b < newest)
    }));
}

#[test]
fn parking_is_invisible_under_edge_churn() {
    assert_parking_invisible("none", "edge:rho=0.02,heal=0.25");
}
