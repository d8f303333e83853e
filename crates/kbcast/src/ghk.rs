//! A collision-detection multiple-message broadcast in the
//! Ghaffari–Haeupler–Khabbazian style — the fourth
//! [`BroadcastProtocol`], and the only one that runs on the
//! [`radio_net::WithCd`] channel.
//!
//! Where the paper's coded algorithm and the BII baseline treat a
//! collision as silence, a CD listener observes a three-valued channel
//! (silence / message / collision-noise), and noise is *information*:
//! a burst of colliding transmitters still tells every neighbor that
//! *someone* transmitted. This protocol exercises the two classic CD
//! primitives on top of that signal, then floods packets with a
//! CD-adaptive contention window:
//!
//! 1. **Beep wave** (`[0, D+2)`): every initial packet holder beeps in
//!    round 0; a node that first hears *any* signal — a beep or
//!    collision-noise — at wave round `r` records the write-once
//!    distance estimate `dist = r + 1` and echoes one beep in the next
//!    round. The wave reaches eccentricity-many hops in as many
//!    rounds, exactly the standard CD wake-up/synchronization gadget.
//! 2. **Leader election by collision** (`id_bits` windows of `D+2`
//!    rounds, most-significant bit first): in each window the
//!    candidates whose current id bit is 1 beep; every node relays the
//!    first signal it hears once per window, so "some candidate has a
//!    1 here" floods the graph inside the window, and candidates
//!    holding a 0 drop out on hearing it. On a clean channel the
//!    unique survivor is the maximum id, `n - 1`.
//! 3. **CD-adaptive flood**: BII-style epidemic flooding of all `k`
//!    packets over Decay epochs, except that a node whose previous
//!    epoch was pure noise (collisions heard, nothing received)
//!    backs off — it exponentially thins its epoch participation (by
//!    id-class) up to 8×, then re-enters at full rate after any
//!    productive epoch. The flood is deliberately independent of the
//!    elected leader, so packet delivery survives fault schedules
//!    (jamming, crashes) that would corrupt or stall the election.
//!
//! The election outcome is *metadata* ([`GhkMeta`]); the always-on
//! invariants ([`GhkInvariants`]) check write-once distances, monotone
//! candidate shrinkage and monotone packet knowledge under any fault
//! family, while the unique-leader claim is only asserted on clean
//! runs (injected noise can legitimately break it).

use std::collections::HashSet;

use protocols::decay::Decay;
use protocols::timing::{epoch_len, log_n};
use radio_net::engine::Node;
use radio_net::graph::NodeId;
use radio_net::message::MessageSize;
use radio_net::rng;
use radio_net::session::{NoopObserver, RoundEvents, SessionEnd};
use radio_net::trace::{StageProbe, StageSample};
use radio_net::verify::{Check, Violation, ViolationLog};
use rand::rngs::SmallRng;

use crate::packet::{Packet, PacketKey};
use crate::runner::Workload;
use crate::session::{BroadcastProtocol, NetParams};

/// Maximum backoff exponent of the flood stage (participation thins to
/// one epoch in `2^GHK_MAX_BACKOFF`).
const GHK_MAX_BACKOFF: u32 = 3;

/// What a GHK node puts on the channel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GhkMsg {
    /// A contentless signal — the wave/election primitive. Listeners
    /// act the same whether they decode it or only hear it as
    /// collision-noise.
    Beep,
    /// One flooded packet (flood stage only).
    Data(Packet),
}

impl MessageSize for GhkMsg {
    fn size_bits(&self) -> usize {
        match self {
            GhkMsg::Beep => 1,
            GhkMsg::Data(p) => p.size_bits(),
        }
    }
}

/// Parameters of the GHK protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GhkConfig {
    /// Diameter bound `D` used for the wave and per-bit election
    /// windows (each `D + 2` rounds).
    pub d_bound: usize,
    /// Maximum-degree bound Δ for the flood's Decay schedule.
    pub delta_bound: usize,
    /// Id width of the election (`⌈log₂ n⌉`, at least 1).
    pub id_bits: usize,
    /// Epochs each node spends flooding each packet (`Θ(log n)`).
    pub epochs_per_packet: usize,
}

impl GhkConfig {
    /// Defaults for a network with the given parameters; the flood
    /// budget matches the BII baseline's calibration so E21 compares
    /// the CD adaptation, not a budget difference.
    #[must_use]
    pub fn for_network(n: usize, diameter: usize, max_degree: usize) -> Self {
        let delta_bound = max_degree.max(1);
        let low_degree_boost = if epoch_len(delta_bound) < 3 { 3 } else { 1 };
        let id_bits = (usize::BITS - n.max(2).saturating_sub(1).leading_zeros()).max(1) as usize;
        GhkConfig {
            d_bound: diameter.max(1),
            delta_bound,
            id_bits,
            epochs_per_packet: 6 * log_n(n.max(2)) * low_degree_boost,
        }
    }

    /// Length of one wave / election window: a signal crosses the
    /// graph in at most `D` hops, plus one round of injection slack
    /// and one round of echo slack.
    #[must_use]
    pub fn window_len(&self) -> u64 {
        self.d_bound as u64 + 2
    }

    /// First round of the election stage.
    #[must_use]
    pub fn wave_end(&self) -> u64 {
        self.window_len()
    }

    /// First round of the flood stage.
    #[must_use]
    pub fn elect_end(&self) -> u64 {
        self.wave_end() + self.id_bits as u64 * self.window_len()
    }
}

/// One node of the GHK protocol. All nodes start awake — CD protocols
/// assume a synchronized start (noise carries no payload, so it cannot
/// wake a sleeping radio).
#[derive(Debug)]
pub struct GhkNode {
    cfg: GhkConfig,
    id: u64,
    rng: SmallRng,
    decay: Decay,
    // Wave stage.
    dist: Option<u64>,
    /// Pending one-shot echo beep (absolute round), shared by the wave
    /// and election relays; never scheduled across a window boundary.
    beep_at: Option<u64>,
    // Election stage.
    candidate: bool,
    cur_window: Option<u64>,
    window_signal: bool,
    window_echoed: bool,
    /// `Some(am_leader)` once the election is finalized.
    leader: Option<bool>,
    // Flood stage (BII discipline plus CD backoff).
    known: Vec<Packet>,
    known_keys: HashSet<PacketKey>,
    epochs_done: Vec<usize>,
    current: Option<usize>,
    last_epoch: Option<u64>,
    backoff: u32,
    epoch_noise: u32,
    epoch_rx: u32,
    target_k: usize,
}

impl GhkNode {
    /// Creates node `id` initially holding `packets`, completing once
    /// it knows `target_k` distinct packets.
    #[must_use]
    pub fn new(
        cfg: GhkConfig,
        id: u64,
        packets: Vec<Packet>,
        rng: SmallRng,
        target_k: usize,
    ) -> Self {
        let known_keys = packets.iter().map(|p| p.key).collect();
        let epochs_done = vec![0; packets.len()];
        GhkNode {
            cfg,
            id,
            rng,
            decay: Decay::new(cfg.delta_bound),
            dist: if packets.is_empty() { None } else { Some(0) },
            beep_at: None,
            candidate: true,
            cur_window: None,
            window_signal: false,
            window_echoed: false,
            leader: None,
            known: packets,
            known_keys,
            epochs_done,
            current: None,
            last_epoch: None,
            backoff: 0,
            epoch_noise: 0,
            epoch_rx: 0,
            target_k,
        }
    }

    /// The write-once distance estimate from the wave (`Some(0)` for
    /// initial holders; `None` if the wave never reached this node).
    #[must_use]
    pub fn dist(&self) -> Option<u64> {
        self.dist
    }

    /// Whether this node is still an election candidate.
    #[must_use]
    pub fn is_candidate(&self) -> bool {
        self.candidate
    }

    /// `Some(am_leader)` once the election stage has been finalized.
    #[must_use]
    pub fn leader_status(&self) -> Option<bool> {
        self.leader
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

    /// Current flood backoff exponent.
    #[must_use]
    pub fn backoff(&self) -> u32 {
        self.backoff
    }

    /// The id bit examined in election window `w` (msb-first).
    fn bit(&self, w: u64) -> u64 {
        (self.id >> (self.cfg.id_bits as u64 - 1 - w)) & 1
    }

    /// Starts election window `w`: applies the previous window's drop
    /// rule and resets the per-window signal/echo state.
    fn enter_window(&mut self, w: u64) {
        if self.cur_window == Some(w) {
            return;
        }
        if let Some(prev) = self.cur_window {
            if self.candidate && self.bit(prev) == 0 && self.window_signal {
                self.candidate = false;
            }
        }
        self.cur_window = Some(w);
        self.window_signal = false;
        self.window_echoed = false;
        self.beep_at = None;
    }

    /// Finalizes the election (idempotent): applies the last window's
    /// drop rule and freezes the leader flag.
    fn finalize_elect(&mut self) {
        if self.leader.is_some() {
            return;
        }
        if let Some(prev) = self.cur_window {
            if self.candidate && self.bit(prev) == 0 && self.window_signal {
                self.candidate = false;
            }
        }
        self.leader = Some(self.candidate);
    }

    /// A signal (decoded beep or collision-noise) arrived at `round`;
    /// dispatches on the stage the round falls in.
    fn signal(&mut self, round: u64) {
        let wave_end = self.cfg.wave_end();
        let elect_end = self.cfg.elect_end();
        if round < wave_end {
            if self.dist.is_none() {
                self.dist = Some(round + 1);
                if round + 1 < wave_end {
                    self.beep_at = Some(round + 1);
                }
            }
        } else if round < elect_end {
            let window = self.cfg.window_len();
            let w = (round - wave_end) / window;
            let wr = (round - wave_end) % window;
            self.enter_window(w);
            self.window_signal = true;
            if !self.window_echoed && wr + 1 < window {
                self.window_echoed = true;
                self.beep_at = Some(round + 1);
            }
        } else {
            self.epoch_noise += 1;
        }
    }

    /// Starts flood epoch `epoch`: credits the finished epoch, updates
    /// the CD backoff from its noise/reception tally, and picks the
    /// packet (if any) to flood — gated by the backoff id-class.
    fn begin_epoch(&mut self, epoch: u64) {
        if self.last_epoch == Some(epoch) {
            return;
        }
        if self.last_epoch.is_some() {
            if let Some(cur) = self.current {
                self.epochs_done[cur] += 1;
            }
            // The CD adaptation: an epoch of pure noise means the
            // neighborhood is over-contended — thin participation.
            // Any reception (or a quiet channel) resets to full rate.
            if self.epoch_noise > 0 && self.epoch_rx == 0 {
                self.backoff = (self.backoff + 1).min(GHK_MAX_BACKOFF);
            } else {
                self.backoff = 0;
            }
        }
        self.epoch_noise = 0;
        self.epoch_rx = 0;
        self.last_epoch = Some(epoch);
        let gate = 1u64 << self.backoff;
        self.current = if epoch % gate == self.id % gate {
            (0..self.known.len()).find(|&i| self.epochs_done[i] < self.cfg.epochs_per_packet)
        } else {
            None
        };
    }
}

impl Node for GhkNode {
    type Msg = GhkMsg;

    fn poll(&mut self, round: u64) -> Option<GhkMsg> {
        let wave_end = self.cfg.wave_end();
        let elect_end = self.cfg.elect_end();
        if round < wave_end {
            if round == 0 && !self.known.is_empty() {
                return Some(GhkMsg::Beep);
            }
            if self.beep_at == Some(round) {
                self.beep_at = None;
                return Some(GhkMsg::Beep);
            }
            return None;
        }
        if round < elect_end {
            let window = self.cfg.window_len();
            let w = (round - wave_end) / window;
            let wr = (round - wave_end) % window;
            self.enter_window(w);
            if wr == 0 {
                return (self.candidate && self.bit(w) == 1).then_some(GhkMsg::Beep);
            }
            if self.beep_at == Some(round) {
                self.beep_at = None;
                return Some(GhkMsg::Beep);
            }
            return None;
        }
        self.finalize_elect();
        let local = round - elect_end;
        let epoch = self.decay.epoch_of(local);
        self.begin_epoch(epoch);
        let cur = self.current?;
        self.decay
            .should_transmit(local, &mut self.rng)
            .then(|| GhkMsg::Data(self.known[cur].clone()))
    }

    fn receive(&mut self, round: u64, msg: &GhkMsg) {
        match msg {
            GhkMsg::Beep => self.signal(round),
            GhkMsg::Data(p) => {
                if round >= self.cfg.elect_end() {
                    self.epoch_rx += 1;
                    if self.last_epoch.is_some() {
                        self.begin_epoch(self.decay.epoch_of(round - self.cfg.elect_end()));
                    }
                }
                if self.known_keys.insert(p.key) {
                    self.known.push(p.clone());
                    self.epochs_done.push(0);
                }
            }
        }
    }

    fn collision_heard(&mut self, round: u64) {
        self.signal(round);
    }

    fn is_done(&self) -> bool {
        self.known.len() >= self.target_k
    }
}

/// Completion metadata of a GHK session.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GhkMeta {
    /// The elected leader, when the election finished with exactly one
    /// survivor.
    pub leader: Option<u64>,
    /// Number of nodes claiming leadership at session end (1 on a
    /// clean channel; 0 if the session ended before the election,
    /// possibly more under injected faults).
    pub leaders: usize,
    /// Nodes the beep wave reached (wrote a distance estimate).
    pub wave_reached: usize,
}

/// Stage probe for a GHK session: rounds are labelled by the
/// protocol's fixed stage schedule, with a progress gauge per stage —
/// nodes reached by the wave, surviving candidates, then the summed
/// known-packet count (the flood's delivery progress).
#[derive(Clone, Copy, Debug)]
pub struct GhkStageProbe {
    wave_end: u64,
    elect_end: u64,
}

impl GhkStageProbe {
    /// Probe for sessions with the given configuration.
    #[must_use]
    pub fn new(cfg: GhkConfig) -> Self {
        GhkStageProbe {
            wave_end: cfg.wave_end(),
            elect_end: cfg.elect_end(),
        }
    }
}

impl StageProbe<GhkNode> for GhkStageProbe {
    fn sample(&mut self, events: &RoundEvents, nodes: &[GhkNode]) -> StageSample {
        if events.round < self.wave_end {
            let gauge = nodes.iter().filter(|n| n.dist().is_some()).count() as u64;
            StageSample::new("wave").with_gauge(gauge)
        } else if events.round < self.elect_end {
            let gauge = nodes.iter().filter(|n| n.is_candidate()).count() as u64;
            StageSample::new("elect").with_gauge(gauge)
        } else {
            let gauge: u64 = nodes.iter().map(|n| n.known_count() as u64).sum();
            StageSample::new("flood").with_gauge(gauge)
        }
    }
}

/// Protocol-level invariants of a GHK session, run under
/// [`RunOptions::verify`] alongside the model checker.
///
/// Always on (any fault family): distance estimates are write-once,
/// the candidate set only shrinks, per-node packet knowledge only
/// grows, and no node ever holds a key outside the workload. Clean
/// runs additionally assert the election's headline property: exactly
/// one leader, and it is the maximum id `n - 1`.
#[derive(Debug)]
pub struct GhkInvariants {
    expected: Vec<PacketKey>,
    clean: bool,
    n: usize,
    dist_seen: Vec<Option<u64>>,
    was_candidate: Vec<bool>,
    known_floor: Vec<usize>,
    log: ViolationLog,
}

impl GhkInvariants {
    /// Checker for a session over `n` nodes broadcasting the sorted
    /// key set `expected`.
    #[must_use]
    pub fn new(n: usize, expected: Vec<PacketKey>, clean: bool) -> Self {
        GhkInvariants {
            expected,
            clean,
            n,
            dist_seen: vec![None; n],
            was_candidate: vec![true; n],
            known_floor: vec![0; n],
            log: ViolationLog::default(),
        }
    }
}

impl Check<GhkNode> for GhkInvariants {
    fn name(&self) -> &'static str {
        "ghk-stage"
    }

    fn on_round(&mut self, events: &RoundEvents, nodes: &[GhkNode]) {
        for (i, node) in nodes.iter().enumerate() {
            match (self.dist_seen[i], node.dist()) {
                (Some(prev), now) if now != Some(prev) => self.log.record(
                    events.round,
                    format!("node {i} rewrote its wave distance ({prev:?} -> {now:?})"),
                ),
                (None, now) => self.dist_seen[i] = now,
                _ => {}
            }
            if !self.was_candidate[i] && node.is_candidate() {
                self.log.record(
                    events.round,
                    format!("node {i} re-entered the candidate set after dropping out"),
                );
            }
            self.was_candidate[i] = node.is_candidate();
            if node.known_count() < self.known_floor[i] {
                self.log.record(
                    events.round,
                    format!(
                        "node {i} forgot packets (known {} -> {})",
                        self.known_floor[i],
                        node.known_count()
                    ),
                );
            }
            self.known_floor[i] = node.known_count();
        }
    }

    fn on_session_end(&mut self, nodes: &[GhkNode], _end: &SessionEnd) {
        for (i, node) in nodes.iter().enumerate() {
            for p in node.known() {
                if self.expected.binary_search(&p.key).is_err() {
                    self.log.record(
                        u64::MAX,
                        format!("node {i} holds forged packet {:?}", p.key),
                    );
                }
            }
        }
        if self.clean && nodes.iter().any(|n| n.leader_status().is_some()) {
            let leaders: Vec<usize> = nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.leader_status() == Some(true))
                .map(|(i, _)| i)
                .collect();
            if leaders != [self.n - 1] {
                self.log.record(
                    u64::MAX,
                    format!(
                        "clean election must elect exactly node {}, got {leaders:?}",
                        self.n - 1
                    ),
                );
            }
        }
    }

    fn violations(&self) -> &[Violation] {
        self.log.stored()
    }

    fn total_violations(&self) -> usize {
        self.log.total()
    }
}

/// The GHK collision-detection broadcast as a [`BroadcastProtocol`].
#[derive(Clone, Copy, Debug, Default)]
pub struct GhkProtocol {
    /// Explicit configuration, or `None` for
    /// [`GhkConfig::for_network`].
    pub config: Option<GhkConfig>,
}

impl GhkProtocol {
    fn resolve(&self, net: &NetParams) -> GhkConfig {
        self.config
            .unwrap_or_else(|| GhkConfig::for_network(net.n, net.diameter, net.max_degree))
    }
}

impl BroadcastProtocol for GhkProtocol {
    type Node = GhkNode;
    type Cd = radio_net::WithCd;
    type Obs = NoopObserver;
    type Meta = GhkMeta;

    fn name(&self) -> &'static str {
        "ghk"
    }

    fn build(
        &self,
        net: &NetParams,
        workload: &Workload,
        seed: u64,
    ) -> (Vec<GhkNode>, Vec<NodeId>) {
        let cfg = self.resolve(net);
        let k = workload.k();
        // Everyone starts awake: beeps and noise carry no payload, so
        // the engine's receive-to-wake rule can never reach a sleeper.
        let awake = (0..net.n).map(NodeId::new).collect();
        let nodes = (0..net.n)
            .map(|i| {
                GhkNode::new(
                    cfg,
                    i as u64,
                    workload.packets_of(i),
                    rng::stream(seed, i as u64),
                    k,
                )
            })
            .collect();
        (nodes, awake)
    }

    fn observer(&self, _net: &NetParams) -> NoopObserver {
        NoopObserver
    }

    fn round_cap(&self, net: &NetParams, k: usize) -> u64 {
        // The fixed wave + election prologue, then the BII-calibrated
        // flood budget (8x the expected (k + D) pipeline length).
        let cfg = self.resolve(net);
        let epoch = Decay::new(cfg.delta_bound).epoch_len() as u64;
        cfg.elect_end()
            + 8 * ((k as u64 + net.diameter as u64 + 2) * cfg.epochs_per_packet as u64 * epoch)
            + 64
    }

    fn trace_probe(&self, net: &NetParams) -> Box<dyn StageProbe<GhkNode>> {
        Box::new(GhkStageProbe::new(self.resolve(net)))
    }

    fn verify_checks(
        &self,
        net: &NetParams,
        workload: &Workload,
        clean: bool,
    ) -> Vec<Box<dyn Check<GhkNode>>> {
        vec![Box::new(GhkInvariants::new(net.n, workload.keys(), clean))]
    }

    fn delivered(&self, node: &GhkNode) -> Vec<PacketKey> {
        node.known().iter().map(|p| p.key).collect()
    }

    fn finish(&self, _obs: NoopObserver, nodes: &[GhkNode], _end: &SessionEnd) -> GhkMeta {
        let leaders: Vec<u64> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.leader_status() == Some(true))
            .map(|(i, _)| i as u64)
            .collect();
        GhkMeta {
            leader: (leaders.len() == 1).then(|| leaders[0]),
            leaders: leaders.len(),
            wave_reached: nodes.iter().filter(|n| n.dist().is_some()).count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RunOptions;
    use radio_net::topology::Topology;

    /// A verified session of the GHK protocol with default config.
    fn ghk_session(
        topology: &Topology,
        workload: &Workload,
        seed: u64,
    ) -> crate::session::SessionReport<GhkMeta> {
        let opts = RunOptions {
            verify: true,
            ..RunOptions::default()
        };
        crate::session::run_protocol(&GhkProtocol::default(), topology, workload, seed, opts)
            .unwrap()
    }

    #[test]
    fn delivers_single_source_on_path() {
        for seed in 0..3 {
            let r = ghk_session(
                &Topology::Path { n: 12 },
                &Workload::single_source(12, 0, 5),
                seed,
            );
            assert!(r.success, "seed {seed}: {r:?}");
            assert_eq!(r.meta.leader, Some(11), "seed {seed}");
            assert_eq!(r.meta.wave_reached, 12, "seed {seed}");
        }
    }

    #[test]
    fn delivers_spread_workload_on_gnp() {
        for seed in 0..3 {
            let r = ghk_session(
                &Topology::Gnp { n: 25, p: 0.2 },
                &Workload::round_robin(25, 12),
                seed,
            );
            assert!(r.success, "seed {seed}: {r:?}");
            assert_eq!(r.meta.leader, Some(24), "seed {seed}");
        }
    }

    #[test]
    fn elects_the_max_id_on_a_grid() {
        let r = ghk_session(
            &Topology::Grid2d { rows: 5, cols: 5 },
            &Workload::single_source(25, 12, 3),
            9,
        );
        assert!(r.success, "{r:?}");
        assert_eq!(r.meta.leader, Some(24));
        assert_eq!(r.meta.leaders, 1);
    }

    #[test]
    fn wave_distances_grow_from_the_source() {
        // On a path with the source at node 0 the wave distance is
        // exactly the hop distance.
        let cfg = GhkConfig::for_network(8, 7, 2);
        let protocol = GhkProtocol { config: Some(cfg) };
        let workload = Workload::single_source(8, 0, 1);
        let graph = Topology::Path { n: 8 }.build(3).unwrap();
        let net = NetParams::of_graph(&graph);
        let (nodes, awake) = protocol.build(&net, &workload, 3);
        let mut engine =
            radio_net::Engine::<GhkNode, radio_net::NoFaults, radio_net::WithCd>::with_faults_cd(
                graph,
                nodes,
                awake,
                radio_net::NoFaults,
            )
            .unwrap();
        engine.run(cfg.wave_end());
        for i in 0..8 {
            assert_eq!(
                engine.node(NodeId::new(i)).dist(),
                Some(i as u64),
                "node {i}"
            );
        }
    }

    #[test]
    fn zero_packets_trivial() {
        let r = ghk_session(
            &Topology::Path { n: 4 },
            &Workload::new(vec![Vec::new(); 4]),
            0,
        );
        assert!(r.success);
        assert_eq!(r.rounds_total, 0);
    }

    #[test]
    fn backoff_rises_on_pure_noise_epochs_and_resets_on_progress() {
        let cfg = GhkConfig {
            d_bound: 1,
            delta_bound: 2,
            id_bits: 1,
            epochs_per_packet: 4,
        };
        let mut node = GhkNode::new(cfg, 0, vec![], rng::stream(0, 0), 1);
        let elect_end = cfg.elect_end();
        let epoch = Decay::new(cfg.delta_bound).epoch_len() as u64;
        // Epoch 0: all noise, nothing received.
        for r in 0..epoch {
            Node::poll(&mut node, elect_end + r);
            Node::collision_heard(&mut node, elect_end + r);
        }
        Node::poll(&mut node, elect_end + epoch);
        assert_eq!(node.backoff(), 1);
        // Epoch 1: a reception resets the backoff at the next boundary.
        Node::receive(
            &mut node,
            elect_end + epoch,
            &GhkMsg::Data(Packet::new(3, 0, vec![1])),
        );
        Node::poll(&mut node, elect_end + 2 * epoch);
        assert_eq!(node.backoff(), 0);
        assert_eq!(node.known_count(), 1);
    }

    #[test]
    fn backoff_saturates_at_the_cap() {
        let cfg = GhkConfig {
            d_bound: 1,
            delta_bound: 2,
            id_bits: 1,
            epochs_per_packet: 4,
        };
        let mut node = GhkNode::new(cfg, 0, vec![], rng::stream(0, 0), 1);
        let elect_end = cfg.elect_end();
        let epoch = Decay::new(cfg.delta_bound).epoch_len() as u64;
        for e in 0..10 {
            for r in 0..epoch {
                Node::poll(&mut node, elect_end + e * epoch + r);
                Node::collision_heard(&mut node, elect_end + e * epoch + r);
            }
        }
        Node::poll(&mut node, elect_end + 10 * epoch);
        assert_eq!(node.backoff(), GHK_MAX_BACKOFF);
    }

    #[test]
    fn forged_packet_is_reported() {
        // The invariant checker itself must flag a forged packet.
        let mut inv = GhkInvariants::new(1, vec![PacketKey { origin: 0, seq: 0 }], false);
        let cfg = GhkConfig::for_network(2, 1, 1);
        let forged = GhkNode::new(
            cfg,
            0,
            vec![Packet::new(9, 9, vec![1])],
            rng::stream(0, 0),
            1,
        );
        let end = SessionEnd {
            completed: true,
            rounds: 1,
        };
        inv.on_session_end(&[forged], &end);
        assert_eq!(Check::total_violations(&inv), 1);
        assert!(inv.violations()[0].message.contains("forged"));
    }
}
