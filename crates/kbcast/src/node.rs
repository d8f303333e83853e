//! The composite per-node protocol: all four stages behind one
//! [`radio_net::Node`] implementation.
//!
//! Stage boundaries are derived from the shared [`Config`]: Stages 1 and
//! 2 have fixed lengths; Stage 3 ends at the first alarm-free phase
//! (every node detects the same boundary w.h.p.); Stage 4's length
//! follows from `k`, which the root knows and everyone else learns from
//! coded-message headers.

use protocols::bfs::{BfsBuild, BfsConfig};
use protocols::leader::{LeaderConfig, LeaderElection, LeaderOutcome};
use rand::rngs::SmallRng;

use crate::config::Config;
use crate::messages::Msg;
use crate::packet::Packet;
use crate::stage3::CollectState;
use crate::stage4::DissemState;

/// Which stage a round belongs to, from one node's perspective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Stage 1: leader election.
    Leader,
    /// Stage 2: BFS construction.
    Bfs,
    /// Stage 3: packet collection.
    Collect,
    /// Stage 4: coded dissemination.
    Disseminate,
}

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

/// One node of the k-broadcast protocol.
#[derive(Debug)]
pub struct KbcastNode {
    cfg: Config,
    my_id: u64,
    rng: SmallRng,
    /// Cached stage boundaries (`stage1_rounds`, `stage3_start`): the
    /// poll dispatch consults them every round, and deriving them from
    /// `cfg` each time is measurable at simulator scale.
    s1_end: u64,
    s2_end: u64,

    initial_packets: Option<Vec<Packet>>,
    candidate: bool,

    leader: LeaderElection,
    is_root: bool,
    bfs: Option<BfsBuild>,
    collect: Option<CollectState>,
    dissem: Option<DissemState>,
    s4_start: Option<u64>,
    tx: TxCounts,
}

impl KbcastNode {
    /// Creates a node with id `my_id` initially holding `packets`
    /// (packet-holding nodes are the leader-election candidates and wake
    /// at round 0; give the engine exactly those as `initially_awake`).
    #[must_use]
    pub fn new(cfg: Config, my_id: u64, packets: Vec<Packet>, rng: SmallRng) -> Self {
        let candidate = !packets.is_empty();
        let leader_cfg = LeaderConfig {
            id_bits: cfg.id_bits,
            window_rounds: cfg.epidemic_window_rounds(),
            delta_bound: cfg.delta_bound,
        };
        KbcastNode {
            cfg,
            my_id,
            rng,
            s1_end: cfg.stage1_rounds(),
            s2_end: cfg.stage1_rounds() + cfg.stage2_rounds(),
            initial_packets: Some(packets),
            candidate,
            leader: LeaderElection::new(leader_cfg, my_id, candidate),
            is_root: false,
            bfs: None,
            collect: None,
            dissem: None,
            s4_start: None,
            tx: TxCounts::default(),
        }
    }

    fn s1_end(&self) -> u64 {
        self.s1_end
    }

    fn s2_end(&self) -> u64 {
        self.s2_end
    }

    /// This node's id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.my_id
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
        self.is_root
    }

    /// The leader-election outcome, if this node was a candidate.
    #[must_use]
    pub fn leader_outcome(&self) -> Option<LeaderOutcome> {
        self.leader.outcome()
    }

    /// This node's BFS distance, once labeled.
    #[must_use]
    pub fn bfs_distance(&self) -> Option<u32> {
        self.bfs.as_ref().and_then(|b| b.label()).map(|l| l.dist)
    }

    /// This node's full BFS label (distance + parent), once labeled.
    /// Labels are adopted exactly once, so a returned label is final.
    #[must_use]
    pub fn bfs_label(&self) -> Option<protocols::bfs::BfsLabel> {
        self.bfs.as_ref().and_then(|b| b.label())
    }

    /// Read-only view of this node's Stage 3 collection state (the
    /// root's token ledger), once Stage 3 has started for it. Used by
    /// the harness-side invariant checkers.
    #[must_use]
    pub fn collect_state(&self) -> Option<&CollectState> {
        self.collect.as_ref()
    }

    /// Read-only view of this node's Stage 4 dissemination state
    /// (per-group decoders), once Stage 4 reception has started for it.
    /// Used by the harness-side invariant checkers.
    #[must_use]
    pub fn dissem_state(&self) -> Option<&DissemState> {
        self.dissem.as_ref()
    }

    /// Mutable Stage 4 state, for arming a
    /// [`crate::stage4::disseminate::Sabotage`] in tests.
    #[cfg(test)]
    pub(crate) fn dissem_state_mut(&mut self) -> Option<&mut DissemState> {
        self.dissem.as_mut()
    }

    /// Stage-local round at which this node saw Stage 3 end, if it has.
    #[must_use]
    pub fn collection_finished_at(&self) -> Option<u64> {
        self.collect.as_ref().and_then(CollectState::finished_at)
    }

    /// Number of collection phases this node executed (0-based current
    /// phase; equals the number of estimate doublings it performed).
    #[must_use]
    pub fn collection_phase(&self) -> Option<u32> {
        self.collect.as_ref().map(CollectState::phase)
    }

    /// Total packet count `k`, once known (the root knows it after Stage
    /// 3; others learn it from coded headers).
    #[must_use]
    pub fn known_k(&self) -> Option<u32> {
        if self.is_root {
            self.collect
                .as_ref()
                .and_then(|c| c.finished_at().map(|_| c.collected().len() as u32))
        } else {
            self.dissem.as_ref().and_then(DissemState::k)
        }
    }

    /// All packets this node holds: for the root, everything collected;
    /// for others, everything decoded so far.
    #[must_use]
    pub fn packets(&self) -> Vec<Packet> {
        if self.is_root {
            self.collect
                .as_ref()
                .map(|c| c.collected().to_vec())
                .unwrap_or_default()
        } else {
            self.dissem
                .as_ref()
                .map(DissemState::packets)
                .unwrap_or_default()
        }
    }

    /// `true` once this node provably holds all `k` packets.
    #[must_use]
    pub fn has_all_packets(&self) -> bool {
        if self.is_root {
            // The root has everything exactly when collection ended.
            self.collection_finished_at().is_some()
        } else {
            self.dissem.as_ref().is_some_and(DissemState::is_complete)
        }
    }

    /// The stage containing `round` from this node's perspective.
    #[must_use]
    pub fn stage_at(&self, round: u64) -> Stage {
        if round < self.s1_end() {
            Stage::Leader
        } else if round < self.s2_end() {
            Stage::Bfs
        } else if self.s4_start.is_none_or(|s| round < s) {
            Stage::Collect
        } else {
            Stage::Disseminate
        }
    }

    fn ensure_bfs(&mut self) {
        if self.bfs.is_some() {
            return;
        }
        self.leader.finalize();
        self.is_root = self
            .leader
            .outcome()
            .is_some_and(|o: LeaderOutcome| o.is_leader);
        let bfs_cfg = BfsConfig {
            phase_rounds: self.cfg.bfs_phase_rounds(),
            d_bound: self.cfg.d_bound,
            delta_bound: self.cfg.delta_bound,
        };
        self.bfs = Some(BfsBuild::new(bfs_cfg, self.my_id, self.is_root));
    }

    fn ensure_collect(&mut self, round: u64) {
        if self.collect.is_some() {
            return;
        }
        self.ensure_bfs();
        let label = self.bfs.as_ref().and_then(|b| b.label());
        let parent = label.and_then(|l| l.parent);
        let packets = self.initial_packets.take().unwrap_or_default();
        self.collect = Some(CollectState::new(
            self.cfg,
            self.my_id,
            self.is_root,
            parent,
            packets,
            round.saturating_sub(self.s2_end()),
        ));
    }

    /// Creates the receive side of Stage 4 as soon as it is needed
    /// (either at the stage boundary or on the first coded reception).
    fn ensure_dissem_rx(&mut self) {
        if self.dissem.is_some() || self.is_root {
            return;
        }
        let dist = self.bfs.as_ref().and_then(|b| b.label()).map(|l| l.dist);
        self.dissem = Some(DissemState::new_node(self.cfg, dist));
    }

    /// Transitions into Stage 4 once collection has finished locally.
    fn ensure_stage4(&mut self) {
        if self.s4_start.is_some() {
            return;
        }
        let Some(finished) = self.collection_finished_at() else {
            return;
        };
        self.s4_start = Some(self.s2_end() + finished);
        if self.is_root {
            let collected = self
                .collect
                .as_ref()
                .map(|c| c.collected().to_vec())
                .unwrap_or_default();
            self.dissem = Some(DissemState::new_root(self.cfg, collected));
        } else {
            self.ensure_dissem_rx();
        }
    }
}

impl radio_net::engine::Node for KbcastNode {
    type Msg = Msg;

    fn poll(&mut self, round: u64) -> Option<Msg> {
        let out = self.poll_inner(round);
        if let Some(m) = &out {
            self.tx.record(m);
        }
        out
    }

    fn receive(&mut self, round: u64, msg: &Msg) {
        self.receive_inner(round, msg);
    }

    fn is_done(&self) -> bool {
        self.has_all_packets()
    }

    /// Delegates to the current stage's hint (see [`setup_activity`]
    /// and [`collect_dissem_activity`]).
    fn next_activity(&self, round: u64) -> u64 {
        setup_activity(
            round,
            self.s1_end,
            self.s2_end,
            &self.leader,
            self.bfs.as_ref(),
        )
        .unwrap_or_else(|| {
            collect_dissem_activity(
                round,
                self.s2_end,
                self.collect.as_ref(),
                self.s4_start,
                self.dissem.as_ref(),
            )
        })
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

/// The Stage 1–2 activity hint shared by [`KbcastNode`] and
/// [`crate::dynamic::DynamicNode`]: the leader or BFS hint, translated
/// to global rounds and capped at the next stage boundary; `None` from
/// `s2_end` on.
///
/// The `s2_end` cap is load-bearing: the poll there creates the stage-3
/// state with `created_local = 0`, and a node parked across it would
/// build divergent stage state on its next event. The `s1_end` cap
/// keeps `ensure_bfs` (leader finalization and the root scan) on the
/// boundary poll; a candidate's leader hint already stops there, and a
/// parked non-candidate would finalize to the same non-root outcome on
/// its next reception, so that cap is defensive.
pub(crate) fn setup_activity(
    round: u64,
    s1_end: u64,
    s2_end: u64,
    leader: &LeaderElection,
    bfs: Option<&BfsBuild>,
) -> Option<u64> {
    if round < s1_end {
        return Some(leader.next_activity(round).min(s1_end));
    }
    if round < s2_end {
        let hint = bfs.map_or(u64::MAX, |b| b.next_activity(round - s1_end));
        return Some(global_hint(s1_end, hint).min(s2_end));
    }
    None
}

/// The Stage 3–4 activity hint of one collection (started at global
/// round `s3_start`) and the dissemination that follows it (from
/// `s4_start`), translated to global rounds.
///
/// Stage 3 needs no cap because its hints already target the mandatory
/// phase-boundary polls where `advance` decides the finish, and the
/// stage-3→4 hand-off happens inside the same poll that observes the
/// finish.
pub(crate) fn collect_dissem_activity(
    round: u64,
    s3_start: u64,
    collect: Option<&CollectState>,
    s4_start: Option<u64>,
    dissem: Option<&DissemState>,
) -> u64 {
    match s4_start {
        None => collect.map_or(round + 1, |c| {
            global_hint(s3_start, c.next_activity(round - s3_start))
        }),
        Some(s4) if round < s4 => s4,
        Some(s4) => dissem.map_or(round + 1, |d| global_hint(s4, d.next_activity(round - s4))),
    }
}

impl KbcastNode {
    fn poll_inner(&mut self, round: u64) -> Option<Msg> {
        if round < self.s1_end() {
            return self.leader.poll(round, &mut self.rng).map(Msg::Probe);
        }
        self.ensure_bfs();
        if round < self.s2_end() {
            let local = round - self.s1_end();
            return self
                .bfs
                .as_mut()
                .expect("bfs ensured")
                .poll(local, &mut self.rng)
                .map(Msg::Bfs);
        }
        if self.collect.is_none() {
            self.ensure_collect(round);
        }
        if self.s4_start.is_none() {
            let local = round - self.s2_end();
            let out = self
                .collect
                .as_mut()
                .expect("collect ensured")
                .poll(local, &mut self.rng);
            if out.is_some() {
                return out;
            }
            self.ensure_stage4();
        }
        let s4 = self.s4_start?;
        if round < s4 {
            return None;
        }
        self.dissem
            .as_mut()
            .expect("stage 4 state exists once s4_start is set")
            .poll(round - s4, &mut self.rng)
    }

    fn receive_inner(&mut self, round: u64, msg: &Msg) {
        match msg {
            Msg::Probe(p) => {
                if round < self.s1_end() {
                    self.leader.deliver(round, p);
                }
            }
            Msg::Bfs(b) => {
                if round >= self.s1_end() && round < self.s2_end() {
                    self.ensure_bfs();
                    let local = round - self.s1_end();
                    self.bfs.as_mut().expect("bfs ensured").deliver(local, b);
                }
            }
            Msg::Data(_) | Msg::Ack(_) | Msg::Alarm(_) => {
                if round >= self.s2_end() {
                    self.ensure_collect(round);
                    let local = round - self.s2_end();
                    self.collect
                        .as_mut()
                        .expect("collect ensured")
                        .deliver(local, msg);
                }
            }
            Msg::Coded(c) => {
                self.ensure_bfs();
                self.ensure_dissem_rx();
                if let Some(d) = self.dissem.as_mut() {
                    d.deliver(c);
                }
            }
        }
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
    fn stage_at_tracks_boundaries() {
        let n = node_with(1);
        let c = cfg();
        assert_eq!(n.stage_at(0), Stage::Leader);
        assert_eq!(n.stage_at(c.stage1_rounds() - 1), Stage::Leader);
        assert_eq!(n.stage_at(c.stage1_rounds()), Stage::Bfs);
        assert_eq!(n.stage_at(c.stage3_start()), Stage::Collect);
        // Stage 4 is only reported once the node transitions.
        assert_eq!(n.stage_at(c.stage3_start() + 1_000_000), Stage::Collect);
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
        assert_eq!(n.known_k(), Some(1));
        assert_eq!(n.packets().len(), 1);
    }

    #[test]
    fn sleeping_node_never_polled_has_no_transmissions() {
        let n = node_with(0);
        assert_eq!(n.tx_counts().total(), 0);
        assert!(!n.has_all_packets());
        assert_eq!(n.known_k(), None);
        assert_eq!(n.bfs_distance(), None);
    }
}
