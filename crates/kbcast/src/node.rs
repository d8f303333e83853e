//! The composite per-node protocol: all four stages behind one
//! [`radio_net::Node`] implementation.
//!
//! Stage boundaries are derived from the shared [`Config`]: Stages 1 and
//! 2 have fixed lengths; Stage 3 ends at the first alarm-free phase
//! (every node detects the same boundary w.h.p.); Stage 4's length
//! follows from `k`, which the root knows and everyone else learns from
//! coded-message headers.
//!
//! The state machine has two crate-private halves, shared with the
//! streaming [`crate::dynamic::DynamicNode`]: `Setup` is the one Stage
//! 1–2 front end and `Batch` the one Stage 3–4 batch machine.
//! [`KbcastNode`] is a `Setup` plus one `Batch`; the streaming node runs
//! a `Batch` per epoch and differs only in the loop bookkeeping around
//! it.

use protocols::bfs::{BfsBuild, BfsConfig, BfsLabel, BfsMsg};
use protocols::leader::{LeaderConfig, LeaderElection, ProbeMsg};
use rand::rngs::SmallRng;

use crate::config::Config;
use crate::messages::Msg;
use crate::packet::Packet;
use crate::stage3::CollectState;
use crate::stage4::DissemState;

/// Per-message-type transmission counters of one node (the protocol's
/// "energy" profile; aggregated into
/// [`crate::runner::KbcastMeta::tx_by_type`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxCounts {
    /// Stage 1 probe floods.
    pub probe: u64,
    /// Stage 2 BFS announcements.
    pub bfs: u64,
    /// Stage 3 upward data steps.
    pub data: u64,
    /// Stage 3 downward acknowledgements.
    pub ack: u64,
    /// Stage 3 alarm floods.
    pub alarm: u64,
    /// Stage 4 coded transmissions.
    pub coded: u64,
}

impl TxCounts {
    /// Total transmissions.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.probe + self.bfs + self.data + self.ack + self.alarm + self.coded
    }

    /// Adds another node's counters (for harness-side aggregation).
    pub fn add(&mut self, other: &TxCounts) {
        self.probe += other.probe;
        self.bfs += other.bfs;
        self.data += other.data;
        self.ack += other.ack;
        self.alarm += other.alarm;
        self.coded += other.coded;
    }

    fn record(&mut self, msg: &Msg) {
        match msg {
            Msg::Probe(_) => self.probe += 1,
            Msg::Bfs(_) => self.bfs += 1,
            Msg::Data(_) => self.data += 1,
            Msg::Ack(_) => self.ack += 1,
            Msg::Alarm(_) => self.alarm += 1,
            Msg::Coded(_) => self.coded += 1,
        }
    }
}

/// Stages 1 and 2, the front end [`KbcastNode`] and
/// [`crate::dynamic::DynamicNode`] share: the leader election, then the
/// BFS build seeded by its outcome. The node keeps its RNG and lends it
/// to [`Setup::poll`], so the draw order is the node's.
#[derive(Debug)]
pub(crate) struct Setup {
    cfg: Config,
    id: u64,
    /// Cached stage boundaries (`stage1_rounds`, `stage3_start`): the
    /// poll dispatch consults them every round, and deriving them from
    /// the configuration each time is measurable at simulator scale.
    s1_end: u64,
    s2_end: u64,
    leader: LeaderElection,
    is_root: bool,
    bfs_cfg: BfsConfig,
    bfs: Option<BfsBuild>,
}

impl Setup {
    /// The front end of node `id`; `candidate` nodes (those holding
    /// packets at round 0) compete in the election.
    pub(crate) fn new(cfg: Config, id: u64, candidate: bool) -> Self {
        let leader_cfg = LeaderConfig {
            id_bits: cfg.id_bits,
            window_rounds: cfg.epidemic_window_rounds(),
            delta_bound: cfg.delta_bound,
        };
        Setup {
            cfg,
            id,
            s1_end: cfg.stage1_rounds(),
            s2_end: cfg.stage3_start(),
            leader: LeaderElection::new(leader_cfg, id, candidate),
            is_root: false,
            bfs_cfg: BfsConfig {
                phase_rounds: cfg.bfs_phase_rounds(),
                d_bound: cfg.d_bound,
                delta_bound: cfg.delta_bound,
            },
            bfs: None,
        }
    }

    /// The configuration the node runs.
    pub(crate) fn cfg(&self) -> &Config {
        &self.cfg
    }

    /// The node's id.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// First round after Stage 2.
    pub(crate) fn s2_end(&self) -> u64 {
        self.s2_end
    }

    /// Whether the node won the election (final once
    /// [`Setup::ensure_bfs`] ran).
    pub(crate) fn is_root(&self) -> bool {
        self.is_root
    }

    /// The node's BFS label, once labeled (labels are adopted once).
    pub(crate) fn label(&self) -> Option<BfsLabel> {
        self.bfs.as_ref().and_then(BfsBuild::label)
    }

    /// Finalizes the election and starts the BFS build, once.
    pub(crate) fn ensure_bfs(&mut self) {
        if self.bfs.is_some() {
            return;
        }
        self.leader.finalize();
        self.is_root = self.leader.outcome().is_some_and(|o| o.is_leader);
        self.bfs = Some(BfsBuild::new(self.bfs_cfg, self.id, self.is_root));
    }

    /// The Stage 1–2 poll, for rounds before [`Setup::s2_end`].
    pub(crate) fn poll(&mut self, round: u64, rng: &mut SmallRng) -> Option<Msg> {
        if round < self.s1_end {
            return self.leader.poll(round, rng).map(Msg::Probe);
        }
        self.ensure_bfs();
        self.bfs
            .as_mut()
            .expect("bfs ensured")
            .poll(round - self.s1_end, rng)
            .map(Msg::Bfs)
    }

    /// A Stage 1 probe; ignored outside Stage 1.
    pub(crate) fn receive_probe(&mut self, round: u64, p: &ProbeMsg) {
        if round < self.s1_end {
            self.leader.deliver(round, p);
        }
    }

    /// A Stage 2 announcement; ignored outside Stage 2.
    pub(crate) fn receive_bfs(&mut self, round: u64, b: &BfsMsg) {
        if round >= self.s1_end && round < self.s2_end {
            self.ensure_bfs();
            self.bfs
                .as_mut()
                .expect("bfs ensured")
                .deliver(round - self.s1_end, b);
        }
    }

    /// The Stage 1–2 activity hint: the leader or BFS hint, translated
    /// to global rounds and capped at the next stage boundary; `None`
    /// from `s2_end` on.
    ///
    /// The `s2_end` cap is load-bearing: the poll there creates the stage-3
    /// state with `created_local = 0`, and a node parked across it would
    /// build divergent stage state on its next event. The `s1_end` cap
    /// keeps `ensure_bfs` (leader finalization and the root scan) on the
    /// boundary poll; a candidate's leader hint already stops there, and a
    /// parked non-candidate would finalize to the same non-root outcome on
    /// its next reception, so that cap is defensive.
    pub(crate) fn next_activity(&self, round: u64) -> Option<u64> {
        if round < self.s1_end {
            return Some(self.leader.next_activity(round).min(self.s1_end));
        }
        if round < self.s2_end {
            let hint = self
                .bfs
                .as_ref()
                .map_or(u64::MAX, |b| b.next_activity(round - self.s1_end));
            return Some(global_hint(self.s1_end, hint).min(self.s2_end));
        }
        None
    }
}

/// One batch of Stages 3–4, the back end [`KbcastNode`] runs once and
/// [`crate::dynamic::DynamicNode`] runs per epoch: the collection
/// toward the root (GRAB/OSPG) from global round `start`, then, from
/// the round the collection closed, the coded FORWARD dissemination.
///
/// The node lends its front end and RNG to every call, so the draw
/// order is the node's, and supplies the packets the batch collects:
/// the `packets` callback runs once, when the collection starts, and is
/// told whether the node is the root.
#[derive(Debug)]
pub(crate) struct Batch {
    index: u32,
    start: u64,
    collect: Option<CollectState>,
    s4_start: Option<u64>,
    dissem: Option<DissemState>,
    end: Option<u64>,
}

impl Batch {
    /// Batch `index`, whose collection starts at global round `start`.
    pub(crate) fn new(index: u32, start: u64) -> Self {
        Batch {
            index,
            start,
            collect: None,
            s4_start: None,
            dissem: None,
            end: None,
        }
    }

    /// The batch index coded rows carry.
    pub(crate) fn index(&self) -> u32 {
        self.index
    }

    /// Global round the batch's collection starts.
    pub(crate) fn start(&self) -> u64 {
        self.start
    }

    /// The Stage 3 state, once the collection started here.
    pub(crate) fn collect(&self) -> Option<&CollectState> {
        self.collect.as_ref()
    }

    /// The Stage 4 state, once the dissemination (or an early coded
    /// reception) started here.
    pub(crate) fn dissem(&self) -> Option<&DissemState> {
        self.dissem.as_ref()
    }

    /// Global round Stage 4 starts: the round the collection closed,
    /// once this node saw it close.
    pub(crate) fn s4_start(&self) -> Option<u64> {
        self.s4_start
    }

    /// Global round the dissemination's schedule ends, once this node
    /// knows it: the root from the start of Stage 4, everyone else once
    /// it has also heard a coded header of this batch.
    pub(crate) fn end(&self) -> Option<u64> {
        self.end
    }

    /// Caches [`Batch::end`], which the streaming node's hint reads on
    /// every call, once Stage 4 has started and its length is known: at
    /// the hand-off, or at the first coded reception after it.
    fn learn_end(&mut self) {
        if let (None, Some(s4), Some(d)) = (self.end, self.s4_start, &self.dissem) {
            self.end = d.total_rounds().map(|total| s4 + total);
        }
    }

    /// Starts the collection at `round`, once: the BFS label gives the
    /// parent and `packets` the packets to collect.
    fn ensure_collect(
        &mut self,
        setup: &mut Setup,
        round: u64,
        packets: impl FnOnce(bool) -> Vec<Packet>,
    ) {
        if self.collect.is_some() {
            return;
        }
        setup.ensure_bfs();
        let parent = setup.label().and_then(|l| l.parent);
        self.collect = Some(CollectState::new(
            *setup.cfg(),
            setup.id(),
            setup.is_root(),
            parent,
            packets(setup.is_root()),
            round.saturating_sub(self.start),
        ));
    }

    /// Creates the non-root receive side of Stage 4, unless one exists
    /// already: a decoder an early coded reception created keeps its
    /// rows.
    fn ensure_dissem_rx(&mut self, setup: &Setup) {
        if self.dissem.is_none() && !setup.is_root() {
            self.dissem = Some(DissemState::new_node(
                *setup.cfg(),
                setup.label().map(|l| l.dist),
                self.index,
            ));
        }
    }

    /// The Stage 3→4 hand-off, once the collection has closed: the root
    /// sources what it collected, everyone else listens.
    fn hand_off(&mut self, setup: &Setup) {
        let Some(collect) = &self.collect else {
            return;
        };
        let Some(finished) = collect.finished_at() else {
            return;
        };
        self.s4_start = Some(self.start + finished);
        if setup.is_root() {
            let collected = collect.collected().to_vec();
            self.dissem = Some(DissemState::new_root(*setup.cfg(), collected, self.index));
        } else {
            self.ensure_dissem_rx(setup);
        }
        self.learn_end();
    }

    /// The poll from `Setup::s2_end` on: the collection polls first; on
    /// a silent collection round the hand-off runs, and the
    /// dissemination then polls at its own local round.
    pub(crate) fn poll(
        &mut self,
        setup: &mut Setup,
        round: u64,
        rng: &mut SmallRng,
        packets: impl FnOnce(bool) -> Vec<Packet>,
    ) -> Option<Msg> {
        self.ensure_collect(setup, round, packets);
        if self.s4_start.is_none() {
            let out = self
                .collect
                .as_mut()
                .expect("collect ensured")
                .poll(round - self.start, rng);
            if out.is_some() {
                return out;
            }
            self.hand_off(setup);
        }
        let s4 = self.s4_start?;
        if round < s4 {
            return None;
        }
        self.dissem
            .as_mut()
            .expect("stage 4 state exists once s4_start is set")
            .poll(round - s4, rng)
    }

    /// A Stage 3 or Stage 4 message. Stage 3 messages are ignored
    /// before `Setup::s2_end`; a coded row goes to this batch's decoder
    /// (which ignores other batches' rows). Returns the group the row
    /// just decoded, if any.
    pub(crate) fn receive(
        &mut self,
        setup: &mut Setup,
        round: u64,
        msg: &Msg,
        packets: impl FnOnce(bool) -> Vec<Packet>,
    ) -> Option<u32> {
        match msg {
            Msg::Data(_) | Msg::Ack(_) | Msg::Alarm(_) => {
                if round >= setup.s2_end() {
                    self.ensure_collect(setup, round, packets);
                    self.collect
                        .as_mut()
                        .expect("collect ensured")
                        .deliver(round - self.start, msg);
                }
                None
            }
            Msg::Coded(c) => {
                setup.ensure_bfs();
                self.ensure_dissem_rx(setup);
                let d = self.dissem.as_mut()?;
                let before = d.decoded_groups();
                d.deliver(c);
                let decoded = (d.decoded_groups() != before).then_some(c.group);
                self.learn_end();
                decoded
            }
            // Stage 1–2 messages are the front end's.
            Msg::Probe(_) | Msg::Bfs(_) => None,
        }
    }

    /// The batch's activity hint, translated to global rounds.
    ///
    /// Stage 3 needs no cap because its hints already target the
    /// mandatory phase-boundary polls where `advance` decides the
    /// finish, and the stage-3→4 hand-off happens inside the same poll
    /// that observes the finish.
    pub(crate) fn next_activity(&self, round: u64) -> u64 {
        match self.s4_start {
            None => self.collect.as_ref().map_or(round + 1, |c| {
                global_hint(self.start, c.next_activity(round - self.start))
            }),
            Some(s4) if round < s4 => s4,
            Some(s4) => self
                .dissem
                .as_ref()
                .map_or(round + 1, |d| global_hint(s4, d.next_activity(round - s4))),
        }
    }
}

/// Translates a stage-local activity hint to a global round; `u64::MAX`
/// (park until a reception) stays `u64::MAX`.
fn global_hint(stage_start: u64, hint: u64) -> u64 {
    if hint == u64::MAX {
        u64::MAX
    } else {
        stage_start.saturating_add(hint)
    }
}

/// One node of the k-broadcast protocol.
#[derive(Debug)]
pub struct KbcastNode {
    rng: SmallRng,
    /// The node's packets until its collection takes them.
    packets: Vec<Packet>,
    candidate: bool,
    setup: Setup,
    batch: Batch,
    tx: TxCounts,
}

impl KbcastNode {
    /// Creates a node with id `my_id` initially holding `packets`
    /// (packet-holding nodes are the leader-election candidates and wake
    /// at round 0; give the engine exactly those as `initially_awake`).
    #[must_use]
    pub fn new(cfg: Config, my_id: u64, packets: Vec<Packet>, rng: SmallRng) -> Self {
        let candidate = !packets.is_empty();
        KbcastNode {
            rng,
            packets,
            candidate,
            setup: Setup::new(cfg, my_id, candidate),
            batch: Batch::new(0, cfg.stage3_start()),
            tx: TxCounts::default(),
        }
    }

    /// This node's id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.setup.id()
    }

    /// Whether this node started with packets (and therefore competed in
    /// the leader election and woke at round 0).
    #[must_use]
    pub fn is_candidate(&self) -> bool {
        self.candidate
    }

    /// This node's per-message-type transmission counters.
    #[must_use]
    pub fn tx_counts(&self) -> TxCounts {
        self.tx
    }

    /// Whether this node won the leader election (valid after Stage 1).
    #[must_use]
    pub fn is_root(&self) -> bool {
        self.setup.is_root()
    }

    /// This node's full BFS label (distance + parent), once labeled.
    /// Labels are adopted exactly once, so a returned label is final.
    #[must_use]
    pub fn bfs_label(&self) -> Option<BfsLabel> {
        self.setup.label()
    }

    /// Read-only view of this node's Stage 3 collection state (the
    /// root's token ledger), once Stage 3 has started for it. Used by
    /// the harness-side invariant checkers.
    #[must_use]
    pub fn collect_state(&self) -> Option<&CollectState> {
        self.batch.collect()
    }

    /// Read-only view of this node's Stage 4 dissemination state
    /// (per-group decoders), once Stage 4 reception has started for it.
    /// Used by the harness-side invariant checkers.
    #[must_use]
    pub fn dissem_state(&self) -> Option<&DissemState> {
        self.batch.dissem()
    }

    /// Mutable Stage 4 state, for arming a
    /// [`crate::stage4::disseminate::Sabotage`] in tests.
    #[cfg(test)]
    pub(crate) fn dissem_state_mut(&mut self) -> Option<&mut DissemState> {
        self.batch.dissem.as_mut()
    }

    /// Stage-local round at which this node saw Stage 3 end, if it has.
    #[must_use]
    pub fn collection_finished_at(&self) -> Option<u64> {
        self.batch.collect().and_then(CollectState::finished_at)
    }

    /// Number of collection phases this node executed (0-based current
    /// phase; equals the number of estimate doublings it performed).
    #[must_use]
    pub fn collection_phase(&self) -> Option<u32> {
        self.batch.collect().map(CollectState::phase)
    }

    /// All packets this node holds: for the root, everything collected;
    /// for others, everything decoded so far.
    #[must_use]
    pub fn packets(&self) -> Vec<Packet> {
        if self.is_root() {
            self.batch
                .collect()
                .map(|c| c.collected().to_vec())
                .unwrap_or_default()
        } else {
            self.batch
                .dissem()
                .map(DissemState::packets)
                .unwrap_or_default()
        }
    }

    /// `true` once this node provably holds all `k` packets.
    #[must_use]
    pub fn has_all_packets(&self) -> bool {
        if self.is_root() {
            // The root has everything exactly when collection ended.
            self.collection_finished_at().is_some()
        } else {
            self.batch.dissem().is_some_and(DissemState::is_complete)
        }
    }
}

impl radio_net::engine::Node for KbcastNode {
    type Msg = Msg;

    fn poll(&mut self, round: u64) -> Option<Msg> {
        let out = if round < self.setup.s2_end() {
            self.setup.poll(round, &mut self.rng)
        } else {
            let packets = &mut self.packets;
            self.batch.poll(&mut self.setup, round, &mut self.rng, |_| {
                std::mem::take(packets)
            })
        };
        if let Some(m) = &out {
            self.tx.record(m);
        }
        out
    }

    fn receive(&mut self, round: u64, msg: &Msg) {
        match msg {
            Msg::Probe(p) => self.setup.receive_probe(round, p),
            Msg::Bfs(b) => self.setup.receive_bfs(round, b),
            _ => {
                let packets = &mut self.packets;
                self.batch
                    .receive(&mut self.setup, round, msg, |_| std::mem::take(packets));
            }
        }
    }

    fn is_done(&self) -> bool {
        self.has_all_packets()
    }

    /// Delegates to the current stage's hint (see `Setup::next_activity`
    /// and `Batch::next_activity` in this module).
    fn next_activity(&self, round: u64) -> u64 {
        self.setup
            .next_activity(round)
            .unwrap_or_else(|| self.batch.next_activity(round))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_net::engine::Node as _;
    use radio_net::rng;

    fn cfg() -> Config {
        Config::for_network(16, 4, 4)
    }

    fn node_with(packets: usize) -> KbcastNode {
        let pkts: Vec<Packet> = (0..packets)
            .map(|i| Packet::new(1, u32::try_from(i).unwrap(), vec![i as u8]))
            .collect();
        KbcastNode::new(cfg(), 1, pkts, rng::stream(0, 1))
    }

    #[test]
    fn candidate_iff_packets() {
        assert!(node_with(2).is_candidate());
        assert!(!node_with(0).is_candidate());
    }

    #[test]
    fn tx_counts_accumulate_per_variant() {
        let mut counts = TxCounts::default();
        counts.record(&Msg::Probe(protocols::leader::ProbeMsg { iter: 0 }));
        counts.record(&Msg::Alarm(crate::messages::AlarmMsg { phase: 0 }));
        counts.record(&Msg::Alarm(crate::messages::AlarmMsg { phase: 1 }));
        assert_eq!(counts.probe, 1);
        assert_eq!(counts.alarm, 2);
        assert_eq!(counts.total(), 3);
        let mut sum = TxCounts::default();
        sum.add(&counts);
        sum.add(&counts);
        assert_eq!(sum.total(), 6);
    }

    #[test]
    fn lone_candidate_becomes_root_and_finishes() {
        // A single node network: drive poll directly through all stages.
        let c = Config::for_network(2, 1, 1);
        let mut n = KbcastNode::new(c, 0, vec![Packet::new(0, 0, vec![9])], rng::stream(0, 0));
        let mut round = 0u64;
        while !n.is_done() && round < 1_000_000 {
            let _ = n.poll(round);
            round += 1;
        }
        assert!(n.is_done(), "lone node must finish");
        assert!(n.is_root());
        assert_eq!(n.packets().len(), 1);
    }

    /// A non-candidate hears a batch-0 coded row before its collection
    /// closed; the Stage 3→4 hand-off must keep that decoder.
    fn straggler_keeps_early_rows<N: radio_net::engine::Node<Msg = Msg>>(
        mut node: N,
        batch: impl Fn(&N) -> &Batch,
    ) {
        let s2_end = cfg().stage3_start();
        for round in 0..s2_end {
            let _ = node.poll(round);
        }
        let row = crate::messages::CodedMsg::by_hand(
            0,
            1,
            2,
            gf2::BitVec::unit(2, 0),
            vec![vec![0; 16]; 2],
        );
        node.receive(s2_end, &Msg::Coded(row));
        let rank = |nd: &N| batch(nd).dissem().map_or(0, DissemState::rank_total);
        assert_eq!(rank(&node), 1);
        let closed = (s2_end..s2_end + 1_000_000).find(|&round| {
            let _ = node.poll(round);
            batch(&node).s4_start().is_some()
        });
        assert!(closed.is_some(), "collection never closed");
        assert_eq!(rank(&node), 1, "the early row survived Stage 4's start");
    }

    #[test]
    fn a_straggler_keeps_its_early_batch_rows() {
        straggler_keeps_early_rows(node_with(0), |n| &n.batch);
        straggler_keeps_early_rows(
            crate::dynamic::DynamicNode::new(cfg(), 1, Vec::new(), rng::stream(0, 1)),
            crate::dynamic::DynamicNode::current_batch,
        );
    }

    #[test]
    fn sleeping_node_never_polled_has_no_transmissions() {
        let n = node_with(0);
        assert_eq!(n.tx_counts().total(), 0);
        assert!(!n.has_all_packets());
        assert!(n.bfs_label().is_none());
    }
}
