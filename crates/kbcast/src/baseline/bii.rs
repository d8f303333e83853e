//! The Bar-Yehuda–Israeli–Itai (BII) multiple-message broadcast
//! baseline.
//!
//! Reconstruction faithful in spirit to SICOMP 22(4):875–887 (1993), the
//! algorithm the paper improves on: there is no leader, no tree and no
//! coding — every packet is flooded epidemically, and nodes time-share
//! the channel between the packets they know. Time is divided into Decay
//! epochs; in each epoch a node picks the oldest packet it has not yet
//! transmitted for `epochs_per_packet = Θ(log n)` epochs and transmits it
//! with the Decay schedule. Every packet behaves like a BGI broadcast
//! pipelined with the others, giving completion in
//! `O((k + D)·log n·logΔ)` rounds — i.e. **amortized `O(log n·logΔ)`
//! rounds per packet**, the bound the coded algorithm beats by the
//! `log n` factor (experiment E1).

use std::collections::HashSet;

use protocols::decay::Decay;
use protocols::timing::{epoch_len, log_n};
use radio_net::engine::Node;
use radio_net::graph::NodeId;
use radio_net::rng;
use radio_net::session::{NoopObserver, RoundEvents, SessionEnd};
use radio_net::trace::{StageProbe, StageSample};
use rand::rngs::SmallRng;

use crate::packet::{Packet, PacketKey};
use crate::runner::Workload;
use crate::session::{BroadcastProtocol, NetParams};

/// Parameters of the BII baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BiiConfig {
    /// Epochs each node spends transmitting each packet (`c·log n`).
    pub epochs_per_packet: usize,
    /// Maximum-degree bound Δ.
    pub delta_bound: usize,
}

impl BiiConfig {
    /// Defaults for a network with the given parameters: `6·log n`
    /// epochs per packet, tripled on low-degree networks (Δ ≤ 4, where a
    /// Decay epoch is 1-2 rounds and the probability of receiving one
    /// *specific* neighbor's packet while the neighborhood is busy drops
    /// to ~1/8 per epoch). Calibrated, like the main algorithm, to the
    /// smallest all-seeds-succeed budget (see EXPERIMENTS.md).
    #[must_use]
    pub fn for_network(n: usize, max_degree: usize) -> Self {
        let delta_bound = max_degree.max(1);
        let low_degree_boost = if epoch_len(delta_bound) < 3 { 3 } else { 1 };
        BiiConfig {
            epochs_per_packet: 6 * log_n(n.max(2)) * low_degree_boost,
            delta_bound,
        }
    }
}

/// One node of the BII baseline. A silent poll, or a duplicate reception
/// at a node knowing at most [`BiiNode::INLINE_KEYS`] packets, reads only
/// this struct: no heap memory, hash probe, scan or division.
#[derive(Debug)]
pub struct BiiNode {
    rng: SmallRng,
    /// First round after the current epoch (0 = never polled).
    epoch_end: u64,
    /// FIFO budget cursor (the pipelining discipline): packets before
    /// `head` are exhausted, `known[head]` has sent `spent < budget` epochs.
    head: u32,
    spent: u32,
    budget: u32,
    decay: Decay,
    /// Known-packet count that completes the node (`u32::MAX`: never).
    target: u32,
    /// Whether `known[head]` is transmitted this epoch.
    sending: bool,
    /// Keys of `known[..INLINE_KEYS]`; `spill` holds the rest.
    inline: [PacketKey; Self::INLINE_KEYS],
    spill: HashSet<PacketKey>,
    known: Vec<Packet>,
}

impl BiiNode {
    /// Known keys held inline before the hash set (chosen in DESIGN §4c).
    pub const INLINE_KEYS: usize = 2;

    /// Creates a node initially holding `packets`.
    #[must_use]
    pub fn new(cfg: BiiConfig, packets: Vec<Packet>, rng: SmallRng) -> Self {
        let empty = PacketKey { origin: 0, seq: 0 };
        let (first, rest) = packets.split_at(packets.len().min(Self::INLINE_KEYS));
        BiiNode {
            rng,
            epoch_end: 0,
            head: 0,
            spent: 0,
            budget: u32::try_from(cfg.epochs_per_packet).unwrap_or(u32::MAX),
            decay: Decay::new(cfg.delta_bound),
            target: u32::MAX,
            sending: false,
            inline: std::array::from_fn(|i| first.get(i).map_or(empty, |p| p.key)),
            spill: rest.iter().map(|p| p.key).collect(),
            known: packets,
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
        node.target = u32::try_from(target_k).unwrap_or(u32::MAX);
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

    fn has_budget(&self) -> bool {
        (self.head as usize) < self.known.len() && self.spent < self.budget
    }

    /// Enters the epoch holding `round`: credits one epoch to the packet sent in the
    /// last one (skipped epochs of a crashed or parked node sent nothing), then re-picks.
    fn begin_epoch(&mut self, round: u64) {
        if self.sending {
            self.spent += 1;
            if self.spent == self.budget {
                self.head += 1;
                self.spent = 0;
            }
        }
        self.epoch_end = self.decay.epoch_end(round);
        self.sending = self.has_budget();
    }
}

impl Node for BiiNode {
    type Msg = Packet;

    fn poll(&mut self, round: u64) -> Option<Packet> {
        if round >= self.epoch_end {
            self.begin_epoch(round);
        }
        let rung = self.decay.rung_before(round, self.epoch_end);
        (self.sending && Decay::rung_draw(rung, &mut self.rng))
            .then(|| self.known[self.head as usize].clone())
    }

    fn receive(&mut self, round: u64, msg: &Packet) {
        // A parked node skipped epoch starts that sent nothing; one
        // catch-up call replays them before the packet is admitted.
        // Never-polled nodes (`epoch_end == 0`) keep their first-poll pick.
        if self.epoch_end != 0 && round >= self.epoch_end {
            self.begin_epoch(round);
        }
        let n = self.known.len();
        if self.inline[..n.min(Self::INLINE_KEYS)].contains(&msg.key) {
            return;
        }
        if n < Self::INLINE_KEYS {
            self.inline[n] = msg.key;
        } else if !self.spill.insert(msg.key) {
            return;
        }
        self.known.push(msg.clone());
    }

    fn is_done(&self) -> bool {
        self.known.len() >= self.target as usize
    }

    /// Transmitting a packet this epoch → active every round. Idle but
    /// holding untransmitted budget (a packet arrived after this
    /// epoch's pick) → parked until the next epoch boundary, where
    /// `begin_epoch` re-picks: `epoch_end`, as the hint follows a poll.
    /// All budgets exhausted → silent until a reception, which voids it.
    fn next_activity(&self, round: u64) -> u64 {
        match (self.sending, self.has_budget()) {
            (true, _) => round + 1,
            (false, true) => self.epoch_end,
            (false, false) => u64::MAX,
        }
    }
}

/// The BII baseline as a [`BroadcastProtocol`].
///
/// BII has no termination detection of its own, so nodes are built
/// with the harness-side completion target `k` and the session stops
/// once every node knows all packets (identical to the historical
/// omniscient-predicate loop).
#[derive(Clone, Copy, Debug, Default)]
pub struct BiiProtocol {
    /// Explicit configuration, or `None` for [`BiiConfig::for_network`].
    pub config: Option<BiiConfig>,
}

impl BiiProtocol {
    fn resolve(&self, net: &NetParams) -> BiiConfig {
        self.config
            .unwrap_or_else(|| BiiConfig::for_network(net.n, net.max_degree))
    }
}

/// Stage probe for a BII session (see [`radio_net::trace`]): the
/// algorithm has no stages — every round is epidemic flooding — so the
/// whole run is one `"flood"` span, with the summed known-packet count
/// across all nodes as the progress gauge (from `k` placed packets to
/// `n·k` at completion). A node's known set grows only on reception,
/// so the gauge is re-summed only in rounds with a reception.
#[derive(Clone, Copy, Debug, Default)]
pub struct BiiStageProbe {
    gauge: Option<u64>,
}

impl StageProbe<BiiNode> for BiiStageProbe {
    fn sample(&mut self, events: &RoundEvents, nodes: &[BiiNode]) -> StageSample {
        let gauge = match self.gauge {
            Some(g) if events.receptions == 0 => g,
            _ => nodes.iter().map(|n| n.known_count() as u64).sum(),
        };
        self.gauge = Some(gauge);
        StageSample::new("flood").with_gauge(gauge)
    }
}

impl BroadcastProtocol for BiiProtocol {
    type Node = BiiNode;
    type Cd = radio_net::NoCd;
    type Obs = NoopObserver;
    type Meta = ();

    fn name(&self) -> &'static str {
        "bii"
    }

    fn build(
        &self,
        net: &NetParams,
        workload: &Workload,
        seed: u64,
    ) -> (Vec<BiiNode>, Vec<NodeId>) {
        let cfg = self.resolve(net);
        let k = workload.k();
        let nodes = (0..net.n)
            .map(|i| {
                BiiNode::with_target(cfg, workload.packets_of(i), rng::stream(seed, i as u64), k)
            })
            .collect();
        (nodes, workload.initially_awake())
    }

    fn observer(&self, _net: &NetParams) -> NoopObserver {
        NoopObserver
    }

    fn round_cap(&self, net: &NetParams, k: usize) -> u64 {
        // Cap: 8x the expected (k + D) · epochs_per_packet · |epoch|
        // budget.
        let cfg = self.resolve(net);
        let epoch = Decay::new(cfg.delta_bound).epoch_len() as u64;
        8 * ((k as u64 + net.diameter as u64 + 2) * cfg.epochs_per_packet as u64 * epoch) + 64
    }

    fn trace_probe(&self, _net: &NetParams) -> Box<dyn StageProbe<BiiNode>> {
        Box::new(BiiStageProbe::default())
    }

    fn delivered(&self, node: &BiiNode) -> Vec<PacketKey> {
        node.known().iter().map(|p| p.key).collect()
    }

    fn finish(&self, _obs: NoopObserver, _nodes: &[BiiNode], _end: &SessionEnd) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_net::topology::Topology;

    fn bii_session(
        topology: &Topology,
        workload: &Workload,
        seed: u64,
    ) -> crate::session::SessionReport<()> {
        crate::session::run_protocol(
            &BiiProtocol::default(),
            topology,
            workload,
            seed,
            crate::runner::RunOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn delivers_on_path() {
        for seed in 0..3 {
            let r = bii_session(
                &Topology::Path { n: 12 },
                &Workload::single_source(12, 0, 5),
                seed,
            );
            assert!(r.success, "seed {seed}: {r:?}");
        }
    }

    #[test]
    fn delivers_spread_workload_on_gnp() {
        for seed in 0..3 {
            let r = bii_session(
                &Topology::Gnp { n: 25, p: 0.2 },
                &Workload::round_robin(25, 12),
                seed,
            );
            assert!(r.success, "seed {seed}: {r:?}");
        }
    }

    #[test]
    fn zero_packets_trivial() {
        let r = bii_session(
            &Topology::Path { n: 4 },
            &Workload::new(vec![Vec::new(); 4]),
            0,
        );
        assert!(r.success);
        assert_eq!(r.rounds_total, 0);
    }

    #[test]
    fn node_tracks_transmission_budget() {
        let cfg = BiiConfig {
            epochs_per_packet: 2,
            delta_bound: 2,
        };
        let p = Packet::new(0, 0, vec![1]);
        let mut node = BiiNode::new(cfg, vec![p], rng::stream(0, 0));
        // Run enough rounds to exhaust the budget; afterwards the node
        // must go silent.
        let epoch = Decay::new(2).epoch_len() as u64;
        let mut transmissions = 0;
        for round in 0..(10 * epoch) {
            if Node::poll(&mut node, round).is_some() {
                transmissions += 1;
            }
        }
        assert!(transmissions >= 1);
        // Budget: at most epochs_per_packet epochs of (at most 1/round).
        assert!(transmissions <= cfg.epochs_per_packet as u64 * epoch);
    }

    #[test]
    fn late_packets_still_get_their_budget() {
        let cfg = BiiConfig {
            epochs_per_packet: 1,
            delta_bound: 2,
        };
        let mut node = BiiNode::new(cfg, vec![], rng::stream(1, 1));
        assert_eq!(Node::poll(&mut node, 0), None);
        let p = Packet::new(2, 0, vec![9]);
        Node::receive(&mut node, 0, &p);
        assert_eq!(node.known_count(), 1);
        // Duplicate reception ignored.
        Node::receive(&mut node, 1, &p);
        assert_eq!(node.known_count(), 1);
    }
}
