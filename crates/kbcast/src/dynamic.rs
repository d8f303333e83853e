//! **Extension: dynamic packet arrivals** — the paper's concluding open
//! problem ("in a more practical scenario, packets appear at nodes
//! dynamically; a challenging direction would be to adapt 'static'
//! solutions to such a more dynamic setting").
//!
//! The adaptation implemented here is *batch pipelining*: Stages 1–2
//! (leader election, BFS) run once, on the same front end the one-shot
//! [`crate::node::KbcastNode`] uses, and the network then loops Stages
//! 3 and 4 forever, each batch on the one Stage 3–4 batch machine the
//! one-shot node runs once. Packets that arrive during batch `b` are
//! collected and disseminated in batch `b+1`. Every batch's
//! dissemination carries a synthetic *batch-marker* packet from the
//! root, so `k_b ≥ 1` always: every node learns the batch's group count
//! from the coded headers and therefore agrees on where the next batch
//! starts. Coded messages are tagged with the batch index, so a lagging
//! node never mixes batches (it decodes foreign batches in a
//! receive-only mode instead of relaying them).
//!
//! Per-packet latency is `O(own batch's span)`: amortized `O(logΔ)`
//! rounds per packet plus the batch-framing overhead — the fixed
//! `(D + log n)·log n` Stage 3 floor is paid once per batch, which is
//! exactly the static bound recycled (experiment E19).
//!
//! **Streaming.** A [`ScheduleSource`] replays the arrival schedule in
//! round order on the engine's one session loop
//! ([`Engine::run_session_with`]), so unbounded workloads terminate on a
//! round budget or once everything is delivered instead of on
//! `all_done`, and every packet carries birth/delivery *stamps* (see
//! [`DynamicNode::stamps`]) from which per-packet latency percentiles
//! are computed — batch-level accounting is derived, not primary.
//! [`run_streaming`] is the entry point and returns the common
//! [`SessionReport`] with [`DynamicMeta`]; [`ScheduleSource::run`] is
//! the one streaming drive, shared with the line-protocol service.
//! Experiment E19 sweeps it under Poisson load.
//!
//! [`check_arrival`] is the one arrival rule: the session's build-time
//! check applies it to the whole schedule, the service to each `inject`.

use std::collections::{HashMap, HashSet, VecDeque};

use radio_net::engine::{Engine, NoCd, Node};
use radio_net::error::Error;
use radio_net::faults::FaultModel;
use radio_net::graph::NodeId;
use radio_net::rng;
use radio_net::session::{NoopObserver, Observer, RoundEvents, SessionControl, SessionEnd};
use radio_net::stats::{mean, nearest_rank};
use radio_net::topology::Topology;
use radio_net::trace::{StageProbe, StageSample};
use rand::rngs::SmallRng;

use crate::config::Config;
use crate::messages::Msg;
use crate::node::{Batch, Setup};
use crate::packet::{check_payload, Packet, PacketKey};
use crate::runner::{RunOptions, Workload};
use crate::session::{run_protocol_on_graph, BroadcastProtocol, NetParams, SessionReport};
use crate::stage4::DissemState;
use crate::verify::EpochConservation;

/// Reserved origin id for batch-marker packets (never a real node id —
/// real ids are `< 2^id_bits ≤ 2^32`).
pub const MARKER_ORIGIN: u64 = u64::MAX;

/// An externally arriving packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Round at which the packet appears at the node.
    pub round: u64,
    /// The node it appears at.
    pub node: usize,
    /// Application payload.
    pub payload: Vec<u8>,
}

/// What happened in one closed batch (root's view).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchRecord {
    /// Batch index.
    pub batch: u32,
    /// Real packets carried (the marker is not counted).
    pub k: usize,
    /// Round the batch's Stage 3 started.
    pub start: u64,
    /// Round the batch ended (its Stage 4 completed its schedule).
    pub end: u64,
    /// Keys of the real packets carried.
    pub keys: Vec<PacketKey>,
}

/// One node of the dynamic k-broadcast protocol.
#[derive(Debug)]
pub struct DynamicNode {
    rng: SmallRng,
    /// Stages 1–2, shared with [`crate::node::KbcastNode`].
    setup: Setup,
    /// The batch executing: Stages 3–4, shared with
    /// [`crate::node::KbcastNode`].
    batch: Batch,

    /// Arrived packets waiting for the next batch.
    pending: Vec<Packet>,
    next_seq: u32,

    /// Everything this node has obtained, across batches.
    delivered: Vec<Packet>,
    delivered_keys: HashSet<PacketKey>,

    /// Receive-only decoders for batches this node is not scheduled in
    /// (straggler recovery).
    foreign_rx: HashMap<u32, DissemState>,

    /// Root only: closed batches.
    history: Vec<BatchRecord>,
    /// Root only: engine round each batch's *collection* closed.
    collect_log: Vec<(u32, u64)>,

    /// Per-packet delivery stamps at *this* node: the round each real
    /// packet key became available here (injection, decode, or batch
    /// harvest — whichever came first). One entry per key.
    stamps: Vec<(PacketKey, u64)>,
    stamped: HashSet<PacketKey>,
}

impl DynamicNode {
    /// Creates a node; `initial` packets are present at round 0 (their
    /// holders are the leader-election candidates and must be the
    /// engine's initially-awake set).
    #[must_use]
    pub fn new(cfg: Config, my_id: u64, initial: Vec<Vec<u8>>, rng: SmallRng) -> Self {
        let mut node = DynamicNode {
            rng,
            setup: Setup::new(cfg, my_id, !initial.is_empty()),
            batch: Batch::new(0, cfg.stage3_start()),
            pending: Vec::new(),
            next_seq: 0,
            delivered: Vec::new(),
            delivered_keys: HashSet::new(),
            foreign_rx: HashMap::new(),
            history: Vec::new(),
            collect_log: Vec::new(),
            stamps: Vec::new(),
            stamped: HashSet::new(),
        };
        for payload in initial {
            node.inject(payload);
        }
        node
    }

    /// Hands the node a packet present from the start (round 0); see
    /// [`DynamicNode::inject_at`] for mid-run arrivals.
    pub fn inject(&mut self, payload: Vec<u8>) {
        self.inject_at(payload, 0);
    }

    /// Hands the node a packet that arrived at `round` (harness side;
    /// in a real deployment this is the application layer). It will
    /// ride the next batch/epoch. The round only feeds the packet's
    /// delivery stamp at this node — scheduling is round-free.
    pub fn inject_at(&mut self, payload: Vec<u8>, round: u64) {
        let p = Packet::new(self.setup.id(), self.next_seq, payload);
        self.next_seq += 1;
        self.delivered_keys.insert(p.key);
        if self.stamped.insert(p.key) {
            self.stamps.push((p.key, round));
        }
        self.delivered.push(p.clone());
        self.pending.push(p);
    }

    /// This node's id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.setup.id()
    }

    /// Whether this node is the elected root.
    #[must_use]
    pub fn is_root(&self) -> bool {
        self.setup.is_root()
    }

    /// Batch currently executing.
    #[must_use]
    pub fn batch(&self) -> u32 {
        self.batch.index()
    }

    /// Per-packet delivery stamps at this node: `(key, round)` for
    /// every real packet held, stamped at injection, group decode, or
    /// epoch harvest — whichever made it available here first.
    #[must_use]
    pub fn stamps(&self) -> &[(PacketKey, u64)] {
        &self.stamps
    }

    /// Every packet this node holds (own + decoded), markers excluded.
    #[must_use]
    pub fn delivered(&self) -> &[Packet] {
        &self.delivered
    }

    /// Number of distinct real packets held.
    #[must_use]
    pub fn delivered_count(&self) -> usize {
        self.delivered.len()
    }

    /// Packets that arrived at this node and are still waiting for a
    /// batch to pick them up (the node's share of the queue-depth
    /// gauge).
    #[must_use]
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Packets this node has originated so far (arrivals injected here).
    #[must_use]
    pub fn originated_count(&self) -> usize {
        self.next_seq as usize
    }

    /// Root only: the closed batches so far.
    #[must_use]
    pub fn history(&self) -> &[BatchRecord] {
        &self.history
    }

    /// Root only: `(batch, engine round)` each batch's collection
    /// closed.
    #[must_use]
    pub fn collect_closes(&self) -> &[(u32, u64)] {
        &self.collect_log
    }

    /// Inserts real packets into the delivered set (idempotent).
    fn deliver_packets(&mut self, packets: &[Packet]) {
        for p in packets {
            if p.key.origin != MARKER_ORIGIN && self.delivered_keys.insert(p.key) {
                self.delivered.push(p.clone());
            }
        }
    }

    /// Stamps real packets as available at this node from `round` on
    /// (idempotent — the first stamp wins).
    fn stamp_packets(&mut self, round: u64, packets: &[Packet]) {
        for p in packets {
            if p.key.origin != MARKER_ORIGIN && self.stamped.insert(p.key) {
                self.stamps.push((p.key, round));
            }
        }
    }

    /// Harvests a finished dissemination and opens the next batch.
    fn close_batch(&mut self, end: u64) {
        if let Some(packets) = self.batch.dissem().map(DissemState::packets) {
            self.deliver_packets(&packets);
            self.stamp_packets(end, &packets);
            if self.setup.is_root() {
                let keys: Vec<PacketKey> = packets
                    .iter()
                    .map(|p| p.key)
                    .filter(|k| k.origin != MARKER_ORIGIN)
                    .collect();
                self.history.push(BatchRecord {
                    batch: self.batch.index(),
                    k: keys.len(),
                    start: self.batch.start(),
                    end,
                    keys,
                });
            }
        }
        let closed = self.batch.index();
        self.batch = Batch::new(closed + 1, end);
        self.foreign_rx.remove(&closed);
    }

    /// Receive-only decoding of a batch this node is not scheduled in
    /// (straggler recovery).
    fn foreign_deliver(&mut self, round: u64, c: &crate::messages::CodedMsg) {
        let cfg = *self.setup.cfg();
        let rx = self
            .foreign_rx
            .entry(c.batch)
            .or_insert_with(|| DissemState::new_node(cfg, None, c.batch));
        let before = rx.decoded_groups();
        rx.deliver(c);
        // Only a decode changes anything: the rows after completion are
        // ignored, and completion itself is a decode.
        if rx.decoded_groups() == before {
            return;
        }
        let decoded = rx.group_packets(c.group);
        let complete = rx.is_complete().then(|| rx.packets());
        self.stamp_packets(round, &decoded);
        if let Some(packets) = complete {
            self.deliver_packets(&packets);
        }
    }

    /// The batch executing, for the hand-off tests in `crate::node`.
    #[cfg(test)]
    pub(crate) fn current_batch(&self) -> &Batch {
        &self.batch
    }
}

/// The packets batch `index` collects at a node: its pending queue,
/// plus, at the root, the batch marker, which guarantees `k_b ≥ 1` so
/// that every node can learn the batch length from the coded headers.
fn batch_packets(pending: &mut Vec<Packet>, index: u32, root: bool) -> Vec<Packet> {
    let mut packets = std::mem::take(pending);
    if root {
        packets.push(Packet::new(MARKER_ORIGIN, index, Vec::new()));
    }
    packets
}

impl Node for DynamicNode {
    type Msg = Msg;

    fn poll(&mut self, round: u64) -> Option<Msg> {
        if round < self.setup.s2_end() {
            return self.setup.poll(round, &mut self.rng);
        }
        // Batch loop: close the batch when its schedule ends.
        if let Some(end) = self.batch.end() {
            if round >= end {
                self.close_batch(end);
            }
        }
        let collecting = self.batch.s4_start().is_none();
        let (pending, index) = (&mut self.pending, self.batch.index());
        let out = self
            .batch
            .poll(&mut self.setup, round, &mut self.rng, |root| {
                batch_packets(pending, index, root)
            });
        if collecting && self.setup.is_root() {
            if let (Some(s4), Some(c)) = (self.batch.s4_start(), self.batch.collect()) {
                // The root holds the batch from the hand-off on.
                let collected = c.collected().to_vec();
                self.deliver_packets(&collected);
                self.stamp_packets(s4, &collected);
                self.collect_log.push((self.batch.index(), s4));
            }
        }
        out
    }

    fn receive(&mut self, round: u64, msg: &Msg) {
        match msg {
            Msg::Probe(p) => self.setup.receive_probe(round, p),
            Msg::Bfs(b) => self.setup.receive_bfs(round, b),
            Msg::Coded(c) if c.batch != self.batch.index() => {
                // Straggler recovery: decode foreign batches
                // receive-only so content is never lost.
                self.setup.ensure_bfs();
                self.foreign_deliver(round, c);
            }
            _ => {
                let (pending, index) = (&mut self.pending, self.batch.index());
                let decoded = self.batch.receive(&mut self.setup, round, msg, |root| {
                    batch_packets(pending, index, root)
                });
                // Earlier groups were stamped when they decoded.
                if let (Some(group), Some(d)) = (decoded, self.batch.dissem()) {
                    let packets = d.group_packets(group);
                    self.stamp_packets(round, &packets);
                }
            }
        }
    }

    /// Delegates to the current stage's hint, as
    /// [`crate::node::KbcastNode`] does, and never passes the batch end:
    /// the poll there closes the batch (delivering and stamping its
    /// packets, which the drain predicate and observers read) and opens
    /// the next collection with `created_local = 0`.
    fn next_activity(&self, round: u64) -> u64 {
        self.setup.next_activity(round).unwrap_or_else(|| {
            let hint = self.batch.next_activity(round);
            self.batch.end().map_or(hint, |end| hint.min(end))
        })
    }
}

/// The dynamic batch-loop protocol as a [`BroadcastProtocol`] — the one
/// streaming protocol (the service runs it as `stream-seq`).
///
/// The workload handed to the driver covers only the round-0 arrivals
/// (they wake the network); later arrivals are injected by the
/// protocol's session control hook, which also owns the stop condition
/// (every arrived packet delivered everywhere). [`run_streaming`]
/// builds that workload from an arrival schedule.
#[derive(Clone, Copy, Debug)]
pub struct DynamicProtocol<'a> {
    /// The full arrival schedule in round order (at least one arrival at
    /// round 0).
    pub arrivals: &'a [Arrival],
    /// Explicit configuration, or `None` for [`Config::for_network`].
    pub config: Option<Config>,
    /// Round budget of the session.
    pub horizon: u64,
}

impl DynamicProtocol<'_> {
    /// The configuration the nodes run: the explicit one, else
    /// [`Config::for_network`] of the probed network.
    #[must_use]
    pub fn config_for(&self, net: &NetParams) -> Config {
        self.config
            .unwrap_or_else(|| Config::for_network(net.n, net.diameter, net.max_degree))
    }

    /// The driver's workload on `n` nodes: the round-0 arrivals, which
    /// wake the network. Later arrivals enter through a
    /// [`ScheduleSource`]. An arrival at a node outside `0..n` is left
    /// out, for the session's build-time check to refuse.
    #[must_use]
    pub fn initial_workload(&self, n: usize) -> Workload {
        let mut initial: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n];
        for a in self.arrivals.iter().filter(|a| a.round == 0) {
            if let Some(payloads) = initial.get_mut(a.node) {
                payloads.push(a.payload.clone());
            }
        }
        Workload::new(initial)
    }
}

/// The streaming key rule: the `j`-th arrival at node `i`, counted in
/// schedule order, is keyed `(i, j)` — the numbering
/// [`DynamicNode::inject_at`] gives it. `counts[i]` is the number of
/// arrivals at `i` keyed so far (grown on demand); this keys one more
/// and advances it. Every arrival-to-key mapping goes through here.
pub fn arrival_key(counts: &mut Vec<u32>, node: usize) -> PacketKey {
    if counts.len() <= node {
        counts.resize(node + 1, 0);
    }
    let key = PacketKey {
        origin: node as u64,
        seq: counts[node],
    };
    counts[node] += 1;
    key
}

/// The arrival rule, the one definition of a valid arrival: `a` names
/// a node of an `n`-node network, its payload fits in a packet
/// ([`check_payload`]) and it arrives no earlier than `floor`. Arrivals
/// are replayed in round order, so the floor is the round of the
/// arrival before it (and, in a running service session, the current
/// round).
///
/// # Errors
///
/// [`Error::InvalidParameter`] naming the first condition `a` breaks.
pub fn check_arrival(a: &Arrival, n: usize, floor: u64) -> Result<(), Error> {
    if a.node >= n {
        return Err(Error::InvalidParameter {
            reason: format!("arrival at node {} but the topology has {n} nodes", a.node),
        });
    }
    check_payload(&a.payload)?;
    if a.round < floor {
        return Err(Error::InvalidParameter {
            reason: format!(
                "arrival at round {} is in the past (arrival rounds must be \
                 non-decreasing; the floor is round {floor})",
                a.round
            ),
        });
    }
    Ok(())
}

/// A fixed arrival schedule replayed in round order: each arrival is
/// injected into its node, waking it if asleep, at the top of its
/// round. Round-0 arrivals are the workload's (they are the
/// leader-election candidates) and are not queued.
#[derive(Debug)]
pub struct ScheduleSource {
    queue: VecDeque<Arrival>,
}

impl ScheduleSource {
    /// Queues a schedule's arrivals after round 0, in schedule order.
    /// The schedule must be one [`check_arrival`] accepts arrival by
    /// arrival (rounds non-decreasing): an arrival queued behind a later
    /// round is never injected.
    #[must_use]
    pub fn new(arrivals: &[Arrival]) -> Self {
        debug_assert!(arrivals.windows(2).all(|w| w[0].round <= w[1].round));
        ScheduleSource {
            queue: arrivals.iter().filter(|a| a.round > 0).cloned().collect(),
        }
    }

    /// Queues one more arrival, entering at the top of its round after
    /// every arrival queued before it. Its round must not be earlier
    /// than the last queued one's or the engine's current round (see
    /// [`check_arrival`]).
    pub fn push(&mut self, arrival: Arrival) {
        debug_assert!(self.queue.back().is_none_or(|b| b.round <= arrival.round));
        self.queue.push_back(arrival);
    }

    /// Runs `engine` up to the absolute round `horizon` (so a paused
    /// session resumes mid-run), injecting the queued arrivals as their
    /// rounds come up; nothing is injected at or past `horizon`. With
    /// `drain` set, the run stops once the queue is empty and every node
    /// holds all `k` packets, checked from round 1 on. `completed` means
    /// every node holds all `k`, however the run ended. This is the one
    /// streaming drive, of the library's session and the service alike.
    pub fn run<F: FaultModel, T: radio_net::TopologyModel, O: Observer<DynamicNode>>(
        &mut self,
        engine: &mut Engine<DynamicNode, F, NoCd, T>,
        horizon: u64,
        obs: &mut O,
        k: usize,
        drain: bool,
    ) -> SessionEnd {
        let queue = &mut self.queue;
        let budget = horizon.saturating_sub(engine.round());
        let end = engine.run_session_with(budget, obs, |e| {
            let round = e.round();
            if drain && round > 0 && queue.is_empty() && holds_all(e.nodes(), k) {
                return SessionControl::Stop;
            }
            if round < horizon {
                while let Some(a) = queue.pop_front_if(|a| a.round == round) {
                    e.wake(NodeId::new(a.node));
                    e.node_mut(NodeId::new(a.node)).inject_at(a.payload, round);
                }
            }
            SessionControl::Continue
        });
        SessionEnd {
            completed: holds_all(engine.nodes(), k),
            rounds: end.rounds,
        }
    }
}

/// Whether every node holds `k` packets.
fn holds_all(nodes: &[DynamicNode], k: usize) -> bool {
    nodes.iter().all(|nd| nd.delivered_count() == k)
}

/// Completion metadata of a [`DynamicProtocol`] session.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DynamicMeta {
    /// Closed batches (root's view).
    pub batches: Vec<BatchRecord>,
    /// Per-packet latency (birth round → last node's delivery stamp),
    /// for packets every node holds, sorted ascending (see
    /// [`stamp_latencies`]).
    pub latencies: Vec<u64>,
    /// `(batch, engine round)` each batch's collection closed (root's
    /// view).
    pub collect_closes: Vec<(u32, u64)>,
}

/// Stage probe for a [`DynamicProtocol`] session (see
/// [`radio_net::trace`]): Stages 1–2 are labelled like the static
/// protocol, and the batch loop yields one `batchN` stage per pipelined
/// batch (tracked at the elected root, whose batch counter defines the
/// global schedule). The gauge is the summed delivered-packet count
/// across all nodes.
#[derive(Debug)]
pub struct DynamicStageProbe {
    /// Cached stage boundaries (`stage1_rounds`, `stage3_start`), as in
    /// the coded protocol's stage clock: the probe runs every round.
    s1_end: u64,
    s3_start: u64,
    root: Option<usize>,
    scanned: bool,
}

impl DynamicStageProbe {
    /// A probe for a session configured with `cfg`.
    #[must_use]
    pub fn new(cfg: Config) -> Self {
        DynamicStageProbe {
            s1_end: cfg.stage1_rounds(),
            s3_start: cfg.stage3_start(),
            root: None,
            scanned: false,
        }
    }
}

impl StageProbe<DynamicNode> for DynamicStageProbe {
    fn sample(&mut self, events: &RoundEvents, nodes: &[DynamicNode]) -> StageSample {
        if !self.scanned && events.round >= self.s1_end {
            self.root = nodes.iter().position(DynamicNode::is_root);
            self.scanned = true;
        }
        let stage = if events.round < self.s1_end {
            std::borrow::Cow::Borrowed("leader")
        } else if events.round < self.s3_start {
            std::borrow::Cow::Borrowed("bfs")
        } else {
            let batch = self.root.map_or(0, |r| nodes[r].batch());
            std::borrow::Cow::Owned(format!("batch{batch}"))
        };
        let gauge: u64 = nodes.iter().map(|n| n.delivered_count() as u64).sum();
        let queue: u64 = nodes.iter().map(|n| n.pending_count() as u64).sum();
        // Packets somewhere in the pipeline: injected anywhere but not
        // yet held by the most lagging node.
        let injected: u64 = nodes.iter().map(|n| n.originated_count() as u64).sum();
        let min_held: u64 = nodes
            .iter()
            .map(|n| n.delivered_count() as u64)
            .min()
            .unwrap_or(0);
        StageSample {
            stage,
            gauge: Some(gauge),
            queue_depth: Some(queue),
            in_flight: Some(injected.saturating_sub(min_held)),
        }
    }
}

impl BroadcastProtocol for DynamicProtocol<'_> {
    type Node = DynamicNode;
    type Cd = radio_net::NoCd;
    type Obs = NoopObserver;
    type Meta = DynamicMeta;

    fn name(&self) -> &'static str {
        "dynamic"
    }

    fn build(
        &self,
        net: &NetParams,
        workload: &Workload,
        seed: u64,
    ) -> (Vec<DynamicNode>, Vec<NodeId>) {
        let cfg = self.config_for(net);
        let nodes = (0..net.n)
            .map(|i| {
                DynamicNode::new(
                    cfg,
                    i as u64,
                    workload.payloads_of(i).to_vec(),
                    rng::stream(seed, i as u64),
                )
            })
            .collect();
        (nodes, workload.initially_awake())
    }

    fn observer(&self, _net: &NetParams) -> NoopObserver {
        NoopObserver
    }

    fn round_cap(&self, _net: &NetParams, _k: usize) -> u64 {
        self.horizon
    }

    fn trace_probe(&self, net: &NetParams) -> Box<dyn StageProbe<DynamicNode>> {
        Box::new(DynamicStageProbe::new(self.config_for(net)))
    }

    fn expected_keys(&self, workload: &Workload) -> Vec<PacketKey> {
        // Every arrival, the later ones included, ends up keyed.
        let mut counts = vec![0; workload.len()];
        let mut keys: Vec<PacketKey> = self
            .arrivals
            .iter()
            .map(|a| arrival_key(&mut counts, a.node))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Refuses, before anything is built, what [`run_streaming`] lists
    /// under *Errors*; each arrival's floor is its predecessor's round.
    fn check_payloads(&self, workload: &Workload) -> Result<(), Error> {
        if self.horizon == 0 {
            return Err(Error::InvalidParameter {
                reason: "streaming horizon must be at least 1 round".into(),
            });
        }
        if !self.arrivals.iter().any(|a| a.round == 0) {
            return Err(Error::InvalidParameter {
                reason: "at least one packet must arrive at round 0 to wake the network".into(),
            });
        }
        let mut floor = 0;
        for a in self.arrivals {
            check_arrival(a, workload.len(), floor)?;
            floor = a.round;
        }
        Ok(())
    }

    fn delivered(&self, node: &DynamicNode) -> Vec<PacketKey> {
        node.delivered().iter().map(|p| p.key).collect()
    }

    fn verify_checks(
        &self,
        net: &NetParams,
        _workload: &Workload,
        clean: bool,
    ) -> Vec<Box<dyn radio_net::verify::Check<DynamicNode>>> {
        vec![Box::new(EpochConservation::new(
            self.config_for(net),
            self.arrivals,
            clean,
        ))]
    }

    fn drive<F: FaultModel, T: radio_net::TopologyModel, O: Observer<DynamicNode>>(
        &self,
        engine: &mut Engine<DynamicNode, F, NoCd, T>,
        cap: u64,
        obs: &mut O,
    ) -> SessionEnd {
        // A ScheduleSource replays the schedule and stops once
        // everything is delivered everywhere.
        let horizon = engine.round().saturating_add(cap);
        ScheduleSource::new(self.arrivals).run(engine, horizon, obs, self.arrivals.len(), true)
    }

    fn finish(&self, _obs: NoopObserver, nodes: &[DynamicNode], _end: &SessionEnd) -> DynamicMeta {
        let root = nodes.iter().find(|nd| nd.is_root());
        let batches: Vec<BatchRecord> = root.map(|r| r.history().to_vec()).unwrap_or_default();
        let collect_closes = root
            .map(|r| r.collect_closes().to_vec())
            .unwrap_or_default();
        DynamicMeta {
            batches,
            latencies: stamp_latencies(self.arrivals, nodes),
            collect_closes,
        }
    }
}

/// Per-packet latency from the nodes' delivery stamps, sorted
/// ascending (ready for [`nearest_rank`]): for each arrival, the round
/// its packet became available at the *last* node, minus its birth
/// round — counted only once every node holds it. This is end-to-end
/// broadcast latency measured per packet, not inferred from batch
/// boundaries.
pub fn stamp_latencies(arrivals: &[Arrival], nodes: &[DynamicNode]) -> Vec<u64> {
    let mut counts = vec![0; nodes.len()];
    let births: Vec<(PacketKey, u64)> = arrivals
        .iter()
        .map(|a| (arrival_key(&mut counts, a.node), a.round))
        .collect();
    // Per key: latest stamp across nodes, and how many nodes stamped it.
    let mut last_stamp: HashMap<PacketKey, (u64, usize)> = HashMap::new();
    for nd in nodes {
        for &(key, round) in nd.stamps() {
            let e = last_stamp.entry(key).or_insert((0, 0));
            e.0 = e.0.max(round);
            e.1 += 1;
        }
    }
    let mut latencies: Vec<u64> = births
        .iter()
        .filter_map(|&(key, birth)| {
            let &(last, count) = last_stamp.get(&key)?;
            (count == nodes.len()).then(|| last.saturating_sub(birth))
        })
        .collect();
    latencies.sort_unstable();
    latencies
}

impl SessionReport<DynamicMeta> {
    /// Mean per-packet latency in rounds (0 if nothing was measured).
    #[must_use]
    pub fn mean_latency(&self) -> f64 {
        mean(&self.meta.latencies)
    }

    /// Nearest-rank latency percentile (`p` in `[0, 100]`).
    #[must_use]
    pub fn latency_percentile(&self, p: f64) -> Option<u64> {
        nearest_rank(&self.meta.latencies, p)
    }

    /// Fully delivered packets per executed round — the sustained
    /// throughput over the measured window.
    #[must_use]
    pub fn sustained_throughput(&self) -> f64 {
        if self.rounds_total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.meta.latencies.len() as f64 / self.rounds_total as f64
        }
    }
}

/// Runs the streaming protocol ([`DynamicProtocol`]) on `topology` with
/// the given arrival schedule, for at most `horizon` rounds (it stops
/// early once every arrived packet reached every node).
///
/// # Errors
///
/// [`Error::InvalidParameter`] when `horizon` is 0, no arrival occurs at
/// round 0 (someone must wake the network) or [`check_arrival`] refuses
/// an arrival; plus anything [`RunOptions::validate`] or topology
/// generation rejects.
pub fn run_streaming(
    topology: &Topology,
    arrivals: &[Arrival],
    config: Option<Config>,
    seed: u64,
    horizon: u64,
    options: RunOptions,
) -> Result<SessionReport<DynamicMeta>, Error> {
    let graph = topology.build(seed)?;
    let n = graph.len();
    let protocol = DynamicProtocol {
        arrivals,
        config,
        horizon,
    };
    let workload = protocol.initial_workload(n);
    run_protocol_on_graph(&protocol, graph, &workload, seed, options)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady_arrivals(n: usize, per_wave: usize, waves: usize, gap: u64) -> Vec<Arrival> {
        let mut out = Vec::new();
        for w in 0..waves {
            for i in 0..per_wave {
                out.push(Arrival {
                    round: w as u64 * gap,
                    node: (w * per_wave + i * 7) % n,
                    payload: vec![w as u8, i as u8],
                });
            }
        }
        out
    }

    fn stream(
        topology: &Topology,
        arrivals: &[Arrival],
        seed: u64,
        horizon: u64,
    ) -> Result<SessionReport<DynamicMeta>, Error> {
        run_streaming(
            topology,
            arrivals,
            None,
            seed,
            horizon,
            RunOptions::default(),
        )
    }

    #[test]
    fn static_case_reduces_to_one_batch() {
        // All arrivals at round 0: one batch carries everything.
        let arrivals = steady_arrivals(16, 12, 1, 0);
        let r = stream(&Topology::Gnp { n: 16, p: 0.35 }, &arrivals, 1, 200_000).unwrap();
        assert!(r.success, "{r:?}");
        assert_eq!(r.meta.batches.len(), 1);
        assert_eq!(r.meta.batches[0].k, 12);
        assert_eq!(r.meta.latencies.len(), 12);
    }

    #[test]
    fn later_arrivals_ride_later_batches() {
        let mut arrivals = steady_arrivals(16, 6, 1, 0);
        // A second wave far enough out to land in batch >= 1.
        for i in 0..6 {
            arrivals.push(Arrival {
                round: 4_000,
                node: (3 * i) % 16,
                payload: vec![0xBB, i as u8],
            });
        }
        let r = stream(&Topology::Gnp { n: 16, p: 0.35 }, &arrivals, 2, 400_000).unwrap();
        assert!(r.success, "{r:?}");
        assert!(
            r.meta.batches.len() >= 2,
            "batches: {:?}",
            r.meta.batches.len()
        );
        let first_batch_keys = &r.meta.batches[0].keys;
        assert!(
            first_batch_keys.len() >= 6,
            "first batch must carry at least the initial wave"
        );
        assert_eq!(r.k, 12);
        assert!(r.latency_percentile(50.0).unwrap() <= r.latency_percentile(99.0).unwrap());
        assert!(r.sustained_throughput() > 0.0);
    }

    #[test]
    fn empty_interim_batches_carry_only_the_marker() {
        // One packet at round 0, one very late: the batches in between
        // are marker-only and must still close properly.
        let arrivals = vec![
            Arrival {
                round: 0,
                node: 0,
                payload: vec![1],
            },
            Arrival {
                round: 30_000,
                node: 5,
                payload: vec![2],
            },
        ];
        let r = stream(
            &Topology::Grid2d { rows: 3, cols: 3 },
            &arrivals,
            3,
            600_000,
        )
        .unwrap();
        assert!(r.success, "{r:?}");
        assert!(
            r.meta.batches.iter().any(|b| b.k == 0),
            "expected marker-only batches"
        );
        assert_eq!(
            r.meta.batches.iter().map(|b| b.k).sum::<usize>(),
            2,
            "both real packets carried"
        );
    }

    #[test]
    fn batch_boundaries_are_contiguous() {
        let arrivals = steady_arrivals(12, 4, 3, 3_000);
        let r = stream(&Topology::Gnp { n: 12, p: 0.4 }, &arrivals, 4, 500_000).unwrap();
        assert!(r.success, "{r:?}");
        for w in r.meta.batches.windows(2) {
            assert_eq!(w[0].end, w[1].start, "batches must tile time");
        }
        // Each batch's collection closes inside its own window.
        for (b, &(batch, close)) in r.meta.batches.iter().zip(&r.meta.collect_closes) {
            assert_eq!(b.batch, batch);
            assert!(
                b.start <= close && close <= b.end,
                "{b:?} closed at {close}"
            );
        }
    }

    #[test]
    fn marker_origin_never_collides_with_real_ids() {
        assert!(MARKER_ORIGIN > u64::from(u32::MAX));
    }

    #[test]
    fn streaming_rejects_invalid_inputs() {
        let ok = vec![Arrival {
            round: 0,
            node: 0,
            payload: vec![1],
        }];
        let topo = Topology::Path { n: 4 };
        let zero = stream(&topo, &ok, 0, 0);
        assert!(
            matches!(zero, Err(Error::InvalidParameter { .. })),
            "{zero:?}"
        );
        // Someone must be present at round 0 to wake the network.
        let late = vec![Arrival {
            round: 5,
            node: 0,
            payload: vec![1],
        }];
        let no_seed = stream(&topo, &late, 0, 1_000);
        assert!(
            matches!(&no_seed, Err(Error::InvalidParameter { reason }) if reason.contains("round 0")),
            "{no_seed:?}"
        );
        let bad_node = vec![Arrival {
            round: 0,
            node: 9,
            payload: vec![1],
        }];
        let oob = stream(&topo, &bad_node, 0, 1_000);
        assert!(
            matches!(oob, Err(Error::InvalidParameter { .. })),
            "{oob:?}"
        );
    }

    #[test]
    fn stamps_never_exceed_batch_accounting() {
        // A node stamps a packet when it decodes its group — at or
        // before the batch's schedule end, where the old batch-level
        // accounting placed every latency. So the per-packet stamps
        // refine the batch numbers: same count, pointwise no larger.
        let arrivals = steady_arrivals(16, 6, 2, 4_000);
        let r = stream(&Topology::Gnp { n: 16, p: 0.35 }, &arrivals, 9, 400_000).unwrap();
        assert!(r.success, "{r:?}");
        let mut seq_at = [0u32; 16];
        let mut by_key: HashMap<PacketKey, u64> = HashMap::new();
        for a in &arrivals {
            let key = PacketKey {
                origin: a.node as u64,
                seq: seq_at[a.node],
            };
            seq_at[a.node] += 1;
            by_key.insert(key, a.round);
        }
        let by_key = &by_key;
        let mut batch_lat: Vec<u64> = r
            .meta
            .batches
            .iter()
            .flat_map(|b| b.keys.iter().map(move |k| b.end - by_key[k]))
            .collect();
        batch_lat.sort_unstable();
        // `stamp_latencies` reports latencies sorted.
        let stamp_lat = &r.meta.latencies;
        assert_eq!(stamp_lat.len(), batch_lat.len());
        // Sorted-order dominance follows from per-key dominance.
        for (s, b) in stamp_lat.iter().zip(&batch_lat) {
            assert!(s <= b, "stamp latency {s} exceeds batch-end latency {b}");
        }
        assert!(!stamp_lat.is_empty());
    }
}
