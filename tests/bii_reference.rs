//! Pins the BII node to its original implementation: the original
//! `BiiNode` (a `HashSet` of known keys, a per-packet epoch counter
//! vector rescanned at every epoch start, `Option` cursors and the
//! floating-point Decay draw) is kept below verbatim as a test-only
//! reference, and every session driven with the current node must
//! match it bit for bit — rounds, channel statistics and each node's
//! known packets in first-seen order — across packet counts on both
//! sides of the inline key capacity, transmission budgets, topologies,
//! seeds and fault models.

use radio_kbcast::kbcast::baseline::{BiiConfig, BiiNode};
use radio_kbcast::kbcast::packet::Packet;
use radio_kbcast::kbcast::runner::Workload;
use radio_kbcast::protocols::decay::Decay;
use radio_kbcast::radio_net::dyntopo::BuiltTopology;
use radio_kbcast::radio_net::engine::{Engine, NoCd, Node};
use radio_kbcast::radio_net::faults::FaultSpec;
use radio_kbcast::radio_net::graph::NodeId;
use radio_kbcast::radio_net::rng;
use radio_kbcast::radio_net::stats::SimStats;
use radio_kbcast::radio_net::topology::Topology;

/// The original BII node, verbatim, over the original Decay draw.
#[allow(dead_code)] // `known_count` is part of the verbatim copy
mod reference {
    use std::collections::HashSet;

    use radio_kbcast::kbcast::baseline::BiiConfig;
    use radio_kbcast::kbcast::packet::{Packet, PacketKey};
    use radio_kbcast::radio_net::engine::Node;
    use rand::rngs::SmallRng;
    use rand::Rng;

    /// The original Decay schedule: `gen_bool` over `0.5^(s+1)`.
    #[derive(Clone, Copy, Debug)]
    pub struct Decay {
        epoch_len: usize,
    }

    impl Decay {
        pub fn new(delta_bound: usize) -> Self {
            Decay {
                epoch_len: radio_kbcast::protocols::timing::epoch_len(delta_bound),
            }
        }

        pub fn epoch_len(&self) -> usize {
            self.epoch_len
        }

        pub fn epoch_of(&self, local_round: u64) -> u64 {
            local_round / self.epoch_len as u64
        }

        pub fn probability(&self, local_round: u64) -> f64 {
            let s = (local_round as usize % self.epoch_len) as i32;
            0.5f64.powi(s + 1)
        }

        pub fn should_transmit(&self, local_round: u64, rng: &mut impl Rng) -> bool {
            rng.gen_bool(self.probability(local_round))
        }
    }

    /// One node of the BII baseline.
    #[derive(Debug)]
    pub struct BiiNode {
        cfg: BiiConfig,
        rng: SmallRng,
        decay: Decay,
        known: Vec<Packet>,
        known_keys: HashSet<PacketKey>,
        /// `epochs_done[i]` = epochs spent transmitting `known[i]`.
        epochs_done: Vec<usize>,
        /// Index into `known` being transmitted this epoch.
        current: Option<usize>,
        last_epoch: Option<u64>,
        /// Packet count at which this node reports [`Node::is_done`]
        /// (`None` = never; BII itself has no termination detection, so the
        /// target is harness-provided omniscience).
        target_k: Option<usize>,
    }

    impl BiiNode {
        /// Creates a node initially holding `packets`.
        #[must_use]
        pub fn new(cfg: BiiConfig, packets: Vec<Packet>, rng: SmallRng) -> Self {
            let known_keys = packets.iter().map(|p| p.key).collect();
            let epochs_done = vec![0; packets.len()];
            BiiNode {
                cfg,
                rng,
                decay: Decay::new(cfg.delta_bound),
                known: packets,
                known_keys,
                epochs_done,
                current: None,
                last_epoch: None,
                target_k: None,
            }
        }

        /// [`BiiNode::new`] with a completion target: the node reports
        /// [`Node::is_done`] once it knows `target_k` distinct packets
        /// (stable — the known set only grows).
        #[must_use]
        pub fn with_target(
            cfg: BiiConfig,
            packets: Vec<Packet>,
            rng: SmallRng,
            target_k: usize,
        ) -> Self {
            let mut node = BiiNode::new(cfg, packets, rng);
            node.target_k = Some(target_k);
            node
        }

        /// Packets this node knows so far.
        #[must_use]
        pub fn known(&self) -> &[Packet] {
            &self.known
        }

        /// Number of distinct packets known.
        #[must_use]
        pub fn known_count(&self) -> usize {
            self.known.len()
        }

        fn begin_epoch(&mut self, epoch: u64) {
            if self.last_epoch == Some(epoch) {
                return;
            }
            // Credit the epoch just finished.
            if self.last_epoch.is_some() {
                if let Some(cur) = self.current {
                    self.epochs_done[cur] += 1;
                }
            }
            self.last_epoch = Some(epoch);
            // Oldest packet still under its transmission budget (FIFO in
            // first-seen order — the pipelining discipline).
            self.current =
                (0..self.known.len()).find(|&i| self.epochs_done[i] < self.cfg.epochs_per_packet);
        }
    }

    impl Node for BiiNode {
        type Msg = Packet;

        fn poll(&mut self, round: u64) -> Option<Packet> {
            let epoch = self.decay.epoch_of(round);
            self.begin_epoch(epoch);
            let cur = self.current?;
            self.decay
                .should_transmit(round, &mut self.rng)
                .then(|| self.known[cur].clone())
        }

        fn receive(&mut self, round: u64, msg: &Packet) {
            // A parked node skipped some per-poll `begin_epoch` calls; replay
            // them before admitting the packet so the pick happens exactly as
            // it would on an always-polling node (every skipped epoch had
            // `current = None`, so one catch-up call is cumulative-equivalent).
            // Nodes that have never polled keep `last_epoch = None` and with
            // it their first-poll pick behavior.
            if self.last_epoch.is_some() {
                self.begin_epoch(self.decay.epoch_of(round));
            }
            if self.known_keys.insert(msg.key) {
                self.known.push(msg.clone());
                self.epochs_done.push(0);
            }
        }

        fn is_done(&self) -> bool {
            self.target_k.is_some_and(|t| self.known.len() >= t)
        }

        /// Transmitting a packet this epoch → active every round. Idle but
        /// holding untransmitted budget (a packet arrived after this
        /// epoch's pick) → parked until the next epoch boundary, where
        /// `begin_epoch` re-picks. All budgets exhausted → silent until a
        /// reception, which voids the hint.
        fn next_activity(&self, round: u64) -> u64 {
            if self.current.is_some() {
                return round + 1;
            }
            if self
                .epochs_done
                .iter()
                .any(|&done| done < self.cfg.epochs_per_packet)
            {
                let epoch = self.decay.epoch_len() as u64;
                return ((round / epoch) + 1) * epoch;
            }
            u64::MAX
        }
    }
}

/// Inline key capacity of the current node.
const CAP: usize = BiiNode::INLINE_KEYS;

/// Packet counts: none, one, exactly the inline capacity, one spilled
/// key, a few spilled, and mostly spilled.
const KS: [usize; 6] = [0, 1, CAP, CAP + 1, CAP + 4, 40];

/// Everything observable about one session.
#[derive(Debug, PartialEq)]
struct Outcome {
    rounds: u64,
    stats: SimStats,
    all_done: bool,
    /// Each node's known packets, in first-seen order.
    known: Vec<Vec<Packet>>,
}

/// Builds the node for `(config, packets, rng, target)`.
type Make<N> = fn(BiiConfig, Vec<Packet>, rand::rngs::SmallRng, usize) -> N;

/// One BII session on `topology` with `k` packets placed at random,
/// `epochs` epochs per packet (`None` = the calibrated default) and
/// the given fault model, driven to completion or the usual round cap.
fn session<N: Node<Msg = Packet>>(
    topology: &Topology,
    k: usize,
    epochs: Option<usize>,
    seed: u64,
    faults: &FaultSpec,
    make: Make<N>,
    known: fn(&N) -> &[Packet],
) -> Outcome {
    let g = topology.build(seed).unwrap();
    let n = g.len();
    let d = g.diameter().unwrap_or(n);
    let mut cfg = BiiConfig::for_network(n, g.max_degree());
    if let Some(e) = epochs {
        cfg.epochs_per_packet = e;
    }
    let w = Workload::random(n, k, seed);
    let awake: Vec<NodeId> = (0..n)
        .filter(|&i| !w.payloads_of(i).is_empty())
        .map(NodeId::new)
        .collect();
    let nodes = (0..n)
        .map(|i| make(cfg, w.packets_of(i), rng::stream(seed, i as u64), k))
        .collect();
    let faults = faults.build(n, seed).unwrap();
    let mut engine =
        Engine::<_, _, NoCd>::with_topology(g, nodes, awake, faults, BuiltTopology::Static)
            .unwrap();
    let epoch = Decay::new(cfg.delta_bound).epoch_len() as u64;
    let cap = 8 * ((k as u64 + d as u64 + 2) * cfg.epochs_per_packet as u64 * epoch) + 64;
    let all_done = engine.run_until_all_done(cap);
    Outcome {
        rounds: engine.round(),
        stats: *engine.stats(),
        all_done,
        known: engine.nodes().iter().map(|nd| known(nd).to_vec()).collect(),
    }
}

/// Asserts the current node matches the reference on every packet
/// count, budget, topology and seed under `faults`.
fn assert_matches_reference(faults: &str) {
    let faults: FaultSpec = faults.parse().unwrap();
    let topologies = [
        Topology::Grid2d { rows: 4, cols: 5 },
        Topology::Gnp { n: 20, p: 0.25 },
        Topology::Path { n: 10 },
    ];
    for topology in &topologies {
        for k in KS {
            for epochs in [Some(0), Some(1), None] {
                for seed in 0..3 {
                    let new = session(
                        topology,
                        k,
                        epochs,
                        seed,
                        &faults,
                        BiiNode::with_target,
                        BiiNode::known,
                    );
                    let old = session(
                        topology,
                        k,
                        epochs,
                        seed,
                        &faults,
                        reference::BiiNode::with_target,
                        reference::BiiNode::known,
                    );
                    assert_eq!(
                        new, old,
                        "{topology:?} k={k} epochs={epochs:?} seed={seed} faults={faults:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn matches_reference_clean() {
    assert_matches_reference("none");
}

#[test]
fn matches_reference_under_uniform_loss() {
    assert_matches_reference("uniform:rate=0.1");
}

#[test]
fn matches_reference_under_crashes() {
    assert_matches_reference("crash:frac=0.25,from=0,until=400");
}

/// The default budget delivers everything on a clean channel, so the
/// comparisons above cover completing sessions, not only capped ones.
#[test]
fn default_budget_completes_clean_sessions() {
    for k in KS {
        let out = session(
            &Topology::Grid2d { rows: 4, cols: 5 },
            k,
            None,
            1,
            &FaultSpec::default(),
            BiiNode::with_target,
            BiiNode::known,
        );
        assert!(out.all_done, "k={k}: {out:?}");
        assert!(out.known.iter().all(|p| p.len() == k), "k={k}");
    }
}
