//! The per-node dissemination state machine (`FORWARD` + decoding).

use gf2::bitvec::BitVec;
use gf2::decoder::{Decoder, Insert};
use protocols::decay::Decay;
use rand::Rng;

use crate::config::Config;
use crate::messages::{CodedMsg, Msg};
use crate::packet::Packet;

/// Per-group wire metadata (also learned from message headers by
/// non-root nodes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct GroupMeta {
    size: usize,
    payload_len: usize,
}

/// A group being received: the online decoder plus, once complete, the
/// decoded member blobs ready for re-coding.
#[derive(Clone, Debug)]
struct GroupRx {
    meta: GroupMeta,
    decoder: Decoder,
    ready: Option<Vec<Vec<u8>>>,
}

/// Harness-visible decoding status of one group slot, as reported by
/// [`DissemState::group_status`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupStatus {
    /// Group index.
    pub group: u32,
    /// Decoder rank (independent coded rows held so far).
    pub rank: usize,
    /// Group size `w` (rows needed for full rank).
    pub size: usize,
    /// Whether the group has been decoded back to plaintext packets.
    pub decoded: bool,
}

/// Per-node state of the dissemination stage. Drive with `poll`/`deliver`
/// using stage-local rounds.
#[derive(Clone, Debug)]
pub struct DissemState {
    cfg: Config,
    /// `cfg.forward_phase_rounds()`, cached: `poll` and `next_activity`
    /// split every stage-local round by it.
    phase_len: u64,
    dist: Option<u32>,
    is_root: bool,

    // Root: original packets and the serialized, padded groups.
    root_packets: Vec<Packet>,
    groups: Vec<Vec<Vec<u8>>>,

    // Everyone: totals (root knows; others learn from headers).
    k: Option<u32>,
    g: Option<u32>,

    /// Per-group receive state, indexed by group id; sized to `g` on the
    /// first header so the simulator's per-poll lookups are plain index
    /// reads rather than hash probes.
    rx: Vec<Option<GroupRx>>,
    /// Number of groups fully decoded (`ready.is_some()`), maintained by
    /// [`DissemState::deliver`] so [`DissemState::is_complete`] is O(1) —
    /// the engine consults it after every poll and reception.
    decoded: u32,
    /// Sum of every group decoder's rank, bumped by
    /// [`DissemState::deliver`] on each innovative row so the trace
    /// gauge reads one field per node instead of every decoder.
    rank_total: u64,
    decay: Decay,
    /// Batch tag — 0 for the static problem; see [`crate::dynamic`].
    batch: u32,
    /// Test-only corruption applied by the next `deliver` (see
    /// [`Sabotage`]).
    #[cfg(test)]
    pub(crate) sabotage: Option<Sabotage>,
}

/// A deliberate decoder-state corruption, applied to the received
/// group by the next [`DissemState::deliver`] and then cleared, so the
/// Stage 4 invariant checks in [`crate::verify`] can be shown to fire.
#[cfg(test)]
#[derive(Clone, Copy, Debug)]
pub(crate) enum Sabotage {
    /// Forget the group's rows: its rank falls to 0.
    ForgetRows,
    /// Mark the group decoded at whatever rank it holds.
    DecodeEarly,
    /// Decrement the decoded-group count.
    UndoDecode,
}

impl DissemState {
    /// Root constructor: takes the packets collected in Stage 3, in their
    /// canonical order, and builds the coded groups of `batch` (0 for the
    /// paper's static problem; the dynamic-arrival extension runs one
    /// dissemination per batch, and rows from different batches must
    /// never mix).
    #[must_use]
    pub fn new_root(cfg: Config, packets: Vec<Packet>, batch: u32) -> Self {
        let m = cfg.group_size();
        let k = packets.len();
        let groups: Vec<Vec<Vec<u8>>> = packets
            .chunks(m)
            .map(|chunk| {
                let blobs: Vec<Vec<u8>> = chunk.iter().map(Packet::to_bytes).collect();
                let len = blobs.iter().map(Vec::len).max().unwrap_or(0);
                blobs
                    .into_iter()
                    .map(|mut b| {
                        b.resize(len, 0);
                        b
                    })
                    .collect()
            })
            .collect();
        DissemState {
            cfg,
            phase_len: cfg.forward_phase_rounds(),
            dist: Some(0),
            is_root: true,
            root_packets: packets,
            g: Some(u32::try_from(groups.len()).expect("group count fits u32")),
            k: Some(u32::try_from(k).expect("k fits u32")),
            groups,
            rx: Vec::new(),
            decoded: 0,
            rank_total: 0,
            decay: Decay::new(cfg.delta_bound),
            batch,
            #[cfg(test)]
            sabotage: None,
        }
    }

    /// Non-root constructor for `batch`; `dist` is the node's BFS
    /// distance (ring), if it was labeled in Stage 2 (unlabeled nodes
    /// decode but never forward). Coded messages from other batches are
    /// ignored.
    #[must_use]
    pub fn new_node(cfg: Config, dist: Option<u32>, batch: u32) -> Self {
        DissemState {
            cfg,
            phase_len: cfg.forward_phase_rounds(),
            dist,
            is_root: false,
            root_packets: Vec::new(),
            groups: Vec::new(),
            k: None,
            g: None,
            rx: Vec::new(),
            decoded: 0,
            rank_total: 0,
            decay: Decay::new(cfg.delta_bound),
            batch,
            #[cfg(test)]
            sabotage: None,
        }
    }

    /// Group count, once known.
    #[must_use]
    pub fn num_groups(&self) -> Option<u32> {
        self.g
    }

    /// Number of Stage 4 phases: group `j` spans phases
    /// `3j .. 3j + d_bound`, so the stage runs `3(g-1) + max(D, 1)`
    /// phases. `None` until `g` is known.
    #[must_use]
    pub fn total_phases(&self) -> Option<u64> {
        let g = u64::from(self.g?);
        Some(if g == 0 {
            0
        } else {
            self.cfg.group_spacing * (g - 1) + self.cfg.d_bound.max(1) as u64
        })
    }

    /// Stage length in rounds, once `g` is known.
    #[must_use]
    pub fn total_rounds(&self) -> Option<u64> {
        Some(self.total_phases()? * self.phase_len)
    }

    /// `true` once this node holds all `k` packets (the root trivially
    /// does; a non-root node once every group is decoded — which requires
    /// having learned `g` from some header).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        if self.is_root {
            return true;
        }
        // `decoded` counts groups whose `ready` is set; equal to `g` iff
        // every group in `0..g` is decoded.
        self.g.is_some_and(|g| self.decoded == g)
    }

    /// All packets this node holds, in the root's canonical order
    /// (complete iff [`DissemState::is_complete`]).
    #[must_use]
    pub fn packets(&self) -> Vec<Packet> {
        if self.is_root {
            return self.root_packets.clone();
        }
        let mut out = Vec::new();
        for rx in self.rx.iter().flatten() {
            if let Some(ready) = &rx.ready {
                out.extend(ready.iter().filter_map(|b| Packet::from_bytes(b)));
            }
        }
        out
    }

    /// The packets of group `j`, in the root's canonical order, once this
    /// node has decoded it (empty before, and always at the root, which
    /// sources the groups) — what one group decode adds to
    /// [`DissemState::packets`].
    #[must_use]
    pub fn group_packets(&self, j: u32) -> Vec<Packet> {
        match self.rx.get(j as usize) {
            Some(Some(GroupRx {
                ready: Some(ready), ..
            })) => ready.iter().filter_map(|b| Packet::from_bytes(b)).collect(),
            _ => Vec::new(),
        }
    }

    /// Per-group decoding status for every group this node has seen a
    /// header for, in group order — the harness-side view the invariant
    /// checkers read (rank monotonicity, decode only at full rank).
    /// Empty for the root, which sources the groups rather than
    /// decoding them.
    pub fn group_status(&self) -> impl Iterator<Item = GroupStatus> + '_ {
        self.rx.iter().enumerate().filter_map(|(g, slot)| {
            slot.as_ref().map(|rx| GroupStatus {
                group: u32::try_from(g).expect("group count fits u32"),
                rank: rx.decoder.rank(),
                size: rx.meta.size,
                decoded: rx.ready.is_some(),
            })
        })
    }

    /// Number of fully decoded groups so far (0 for the root).
    #[must_use]
    pub fn decoded_groups(&self) -> u32 {
        self.decoded
    }

    /// Sum of the decoder ranks in [`DissemState::group_status`],
    /// maintained by [`DissemState::deliver`] (0 for the root).
    #[must_use]
    pub fn rank_total(&self) -> u64 {
        self.rank_total
    }

    /// Transmit decision at stage-local round `local`.
    pub fn poll(&mut self, local: u64, rng: &mut impl Rng) -> Option<Msg> {
        let phase = local / self.phase_len;
        let within = local % self.phase_len;
        if self.is_root {
            self.poll_root(phase, within)
        } else {
            self.poll_ring(phase, within, rng)
        }
    }

    fn poll_root(&mut self, phase: u64, within: u64) -> Option<Msg> {
        let g = u64::from(self.g?);
        if !phase.is_multiple_of(self.cfg.group_spacing) {
            return None;
        }
        let j = phase / self.cfg.group_spacing;
        if j >= g {
            return None;
        }
        let group = &self.groups[usize::try_from(j).expect("group index fits")];
        let i = usize::try_from(within).expect("round fits usize");
        if i >= group.len() {
            return None;
        }
        // Raw member `i`, encoded as the unit combination.
        Some(self.coded_msg(
            u32::try_from(j).expect("fits"),
            BitVec::unit(group.len(), i),
            group[i].clone(),
            group.len(),
            group.first().map_or(0, Vec::len),
        ))
    }

    fn poll_ring(&mut self, phase: u64, within: u64, rng: &mut impl Rng) -> Option<Msg> {
        let d = u64::from(self.dist?);
        let g = u64::from(self.g?);
        if d == 0 || phase < d || !(phase - d).is_multiple_of(self.cfg.group_spacing) {
            return None;
        }
        let j = (phase - d) / self.cfg.group_spacing;
        if j >= g {
            return None;
        }
        let jj = u32::try_from(j).expect("fits");
        let rx = self.rx.get(jj as usize)?.as_ref()?;
        let members = rx.ready.as_ref()?;
        if !self.decay.should_transmit(within, rng) {
            return None;
        }
        // Fresh random combination (the heart of FORWARD). The all-zero
        // selection is excluded — it carries no information (see
        // `BitVec::random_nonzero`); with the paper's group size this
        // changes the distribution by 2^-⌈log n⌉ ≤ 1/n per draw.
        let coeffs = BitVec::random_nonzero(members.len(), rng);
        let mut payload = vec![0u8; rx.meta.payload_len];
        for i in coeffs.iter_ones() {
            for (a, b) in payload.iter_mut().zip(&members[i]) {
                *a ^= b;
            }
        }
        let (size, len) = (rx.meta.size, rx.meta.payload_len);
        Some(self.coded_msg(jj, coeffs, payload, size, len))
    }

    /// Earliest future stage-local round at which [`DissemState::poll`]
    /// may act again (see `radio_net::engine::Node::next_activity`).
    ///
    /// The root transmits raw members on a fixed schedule (no
    /// randomness): active while a send phase has members left, then
    /// parked to the next send-phase start, silent forever after the
    /// last group. A ring node transmits only in the phases offset by
    /// its BFS distance, and only for groups it has fully decoded:
    /// active inside such a phase (decay draws every round), parked to
    /// the next eligible phase with a decoded group otherwise, and
    /// parked indefinitely when nothing is decoded — a reception voids
    /// the hint, and decoding only happens in `deliver`.
    #[must_use]
    pub fn next_activity(&self, local: u64) -> u64 {
        let phase_len = self.phase_len;
        let phase = local / phase_len;
        let within = local % phase_len;
        if self.is_root {
            let Some(g) = self.g else {
                return u64::MAX;
            };
            let g = u64::from(g);
            if phase.is_multiple_of(self.cfg.group_spacing) {
                let j = phase / self.cfg.group_spacing;
                if j < g {
                    let group = &self.groups[usize::try_from(j).expect("group index fits")];
                    if within + 1 < group.len() as u64 {
                        return local + 1;
                    }
                }
            }
            let jnext = phase / self.cfg.group_spacing + 1;
            if jnext >= g {
                return u64::MAX;
            }
            return jnext * self.cfg.group_spacing * phase_len;
        }
        let (Some(d), Some(g)) = (self.dist, self.g) else {
            return u64::MAX;
        };
        let (d, g) = (u64::from(d), u64::from(g));
        if d == 0 {
            return u64::MAX;
        }
        let ready = |j: u64| {
            self.rx
                .get(usize::try_from(j).expect("group index fits"))
                .and_then(Option::as_ref)
                .is_some_and(|rx| rx.ready.is_some())
        };
        if phase >= d && (phase - d).is_multiple_of(self.cfg.group_spacing) {
            let j = (phase - d) / self.cfg.group_spacing;
            if j < g && ready(j) {
                return local + 1;
            }
        }
        let start_j = if phase < d {
            0
        } else {
            (phase - d) / self.cfg.group_spacing + 1
        };
        for j in start_j..g {
            if ready(j) {
                return (d + j * self.cfg.group_spacing) * phase_len;
            }
        }
        u64::MAX
    }

    fn coded_msg(
        &self,
        group: u32,
        coeffs: BitVec,
        payload: Vec<u8>,
        group_size: usize,
        payload_len: usize,
    ) -> Msg {
        Msg::Coded(CodedMsg {
            batch: self.batch,
            group,
            num_groups: self.g.expect("sender knows g"),
            k: self.k.expect("sender knows k"),
            group_size: u16::try_from(group_size).expect("group size fits u16"),
            payload_len: u16::try_from(payload_len).expect("payload len fits u16"),
            coeffs,
            payload,
        })
    }

    /// Handles a received coded message (time-independent: decoding does
    /// not care which phase the row arrived in). Rows from other batches
    /// are ignored.
    ///
    /// This is the only place a node's decoder ranks and decoded-group
    /// count change, which is what lets the Stage 4 invariant checks
    /// and the trace gauge visit receivers only.
    pub fn deliver(&mut self, msg: &CodedMsg) {
        self.insert_row(msg);
        #[cfg(test)]
        if let Some(s) = self.sabotage.take() {
            self.apply_sabotage(s, msg.group as usize);
        }
    }

    fn insert_row(&mut self, msg: &CodedMsg) {
        if self.is_root || msg.batch != self.batch {
            return;
        }
        let g = *self.g.get_or_insert(msg.num_groups);
        self.k.get_or_insert(msg.k);
        if self.rx.is_empty() {
            self.rx.resize_with(g as usize, || None);
        }
        let Some(slot) = self.rx.get_mut(msg.group as usize) else {
            return; // group id inconsistent with the learned `g`
        };
        let meta = GroupMeta {
            size: msg.group_size as usize,
            payload_len: msg.payload_len as usize,
        };
        let rx = slot.get_or_insert_with(|| GroupRx {
            meta,
            decoder: Decoder::new(meta.size, meta.payload_len),
            ready: None,
        });
        if rx.ready.is_some() || msg.coeffs.len() != rx.meta.size {
            return; // already decoded, or malformed row
        }
        if let Insert::Innovative { .. } =
            rx.decoder.insert(msg.coeffs.clone(), msg.payload.clone())
        {
            self.rank_total += 1;
        }
        if rx.decoder.is_complete() {
            rx.ready = rx.decoder.decode();
            if rx.ready.is_some() {
                self.decoded += 1;
            }
        }
    }

    #[cfg(test)]
    fn apply_sabotage(&mut self, s: Sabotage, group: usize) {
        if let Sabotage::UndoDecode = s {
            self.decoded = self.decoded.saturating_sub(1);
            return;
        }
        let Some(Some(rx)) = self.rx.get_mut(group) else {
            return;
        };
        match s {
            Sabotage::ForgetRows => rx.decoder = Decoder::new(rx.meta.size, rx.meta.payload_len),
            Sabotage::DecodeEarly if rx.ready.is_none() => {
                rx.ready = Some(Vec::new());
                self.decoded += 1;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_net::engine::{Engine, Node};
    use radio_net::graph::NodeId;
    use radio_net::rng;
    use radio_net::topology::Topology;
    use rand::rngs::SmallRng;

    struct DissemNode {
        st: DissemState,
        rng: SmallRng,
    }

    impl Node for DissemNode {
        type Msg = Msg;
        fn poll(&mut self, round: u64) -> Option<Msg> {
            self.st.poll(round, &mut self.rng)
        }
        fn receive(&mut self, _round: u64, msg: &Msg) {
            if let Msg::Coded(c) = msg {
                self.st.deliver(c);
            }
        }
        fn is_done(&self) -> bool {
            self.st.is_complete()
        }
    }

    fn make_packets(k: usize) -> Vec<Packet> {
        (0..k)
            .map(|i| Packet::new((i % 7) as u64, i as u32, vec![i as u8, 0xAB, (i * 3) as u8]))
            .collect()
    }

    /// Stage 4 in isolation: BFS distances installed by the harness.
    fn run_dissemination(
        topology: &Topology,
        root: usize,
        k: usize,
        seed: u64,
        group_override: Option<usize>,
    ) -> (bool, u64) {
        let g = topology.build(seed).unwrap();
        let n = g.len();
        let mut cfg = Config::for_network(n, g.diameter().unwrap(), g.max_degree());
        cfg.group_size_override = group_override;
        let dist = g.bfs_distances(NodeId::new(root));
        let packets = make_packets(k);
        let nodes: Vec<DissemNode> = (0..n)
            .map(|i| DissemNode {
                st: if i == root {
                    DissemState::new_root(cfg, packets.clone(), 0)
                } else {
                    DissemState::new_node(cfg, dist[i].map(|d| u32::try_from(d).unwrap()), 0)
                },
                rng: rng::stream(seed, i as u64),
            })
            .collect();
        let mut e = Engine::new(g, nodes, (0..n).map(NodeId::new)).unwrap();
        // Generous cap: 4x the scheduled stage length.
        let sched = {
            let m = cfg.group_size();
            let groups = k.div_ceil(m).max(1) as u64;
            (3 * (groups - 1) + cfg.d_bound.max(1) as u64) * cfg.forward_phase_rounds()
        };
        let ok = e.run_until_all_done(4 * sched + 64);
        if !ok {
            return (false, e.round());
        }
        // Every node must hold exactly the root's packets, in order.
        for i in 0..n {
            if e.node(NodeId::new(i)).st.packets() != packets {
                return (false, e.round());
            }
        }
        (true, e.round())
    }

    #[test]
    fn single_group_reaches_everyone_on_path() {
        for seed in 0..3 {
            let (ok, _) = run_dissemination(&Topology::Path { n: 12 }, 0, 3, seed, None);
            assert!(ok, "seed {seed}");
        }
    }

    #[test]
    fn multi_group_pipeline_on_path() {
        for seed in 0..3 {
            let (ok, _) = run_dissemination(&Topology::Path { n: 10 }, 0, 30, seed, None);
            assert!(ok, "seed {seed}");
        }
    }

    #[test]
    fn works_on_grid_star_and_random() {
        for seed in 0..2 {
            let (ok, _) =
                run_dissemination(&Topology::Grid2d { rows: 4, cols: 5 }, 7, 25, seed, None);
            assert!(ok, "grid seed {seed}");
            let (ok, _) = run_dissemination(&Topology::Star { n: 20 }, 0, 12, seed, None);
            assert!(ok, "star seed {seed}");
            let (ok, _) = run_dissemination(&Topology::Gnp { n: 30, p: 0.2 }, 2, 18, seed, None);
            assert!(ok, "gnp seed {seed}");
        }
    }

    #[test]
    fn uncoded_ablation_also_delivers() {
        for seed in 0..2 {
            let (ok, _) = run_dissemination(&Topology::Path { n: 8 }, 0, 10, seed, Some(1));
            assert!(ok, "seed {seed}");
        }
    }

    #[test]
    fn coded_beats_uncoded_in_rounds_for_large_k() {
        let (ok_c, rounds_coded) = run_dissemination(&Topology::Path { n: 10 }, 0, 48, 5, None);
        let (ok_u, rounds_uncoded) =
            run_dissemination(&Topology::Path { n: 10 }, 0, 48, 5, Some(1));
        assert!(ok_c && ok_u);
        assert!(
            rounds_coded < rounds_uncoded,
            "coded {rounds_coded} !< uncoded {rounds_uncoded}"
        );
    }

    #[test]
    fn empty_k_is_trivially_complete_at_root() {
        let cfg = Config::for_network(8, 3, 3);
        let root = DissemState::new_root(cfg, Vec::new(), 0);
        assert_eq!(root.total_phases(), Some(0));
        assert!(root.is_complete());
        assert!(root.packets().is_empty());
    }

    #[test]
    fn last_short_group_is_handled() {
        // k = 2 * m + 1 leaves a 1-member final group.
        let cfg = Config::for_network(256, 4, 4);
        let m = cfg.group_size();
        let (ok, _) = run_dissemination(&Topology::Path { n: 6 }, 0, 2 * m + 1, 3, None);
        assert!(ok);
    }

    #[test]
    fn unlabeled_node_decodes_but_never_transmits() {
        let cfg = Config::for_network(8, 2, 3);
        let mut st = DissemState::new_node(cfg, None, 0);
        let mut rng = rng::stream(0, 0);
        for r in 0..200 {
            assert_eq!(st.poll(r, &mut rng), None);
        }
        // It still decodes from headers.
        st.deliver(&CodedMsg {
            batch: 0,
            group: 0,
            num_groups: 1,
            k: 1,
            group_size: 1,
            payload_len: 16,
            coeffs: BitVec::unit(1, 0),
            payload: {
                let mut b = Packet::new(4, 0, vec![1, 2]).to_bytes();
                b.resize(16, 0);
                b
            },
        });
        assert!(st.is_complete());
        assert_eq!(st.packets(), vec![Packet::new(4, 0, vec![1, 2])]);
    }

    #[test]
    fn foreign_batch_rows_are_ignored() {
        let cfg = Config::for_network(8, 2, 3);
        let mut st = DissemState::new_node(cfg, Some(1), 2);
        st.deliver(&CodedMsg {
            batch: 1, // wrong batch
            group: 0,
            num_groups: 1,
            k: 1,
            group_size: 1,
            payload_len: 16,
            coeffs: BitVec::unit(1, 0),
            payload: vec![0; 16],
        });
        assert_eq!(st.num_groups(), None);
        assert!(!st.is_complete());
        st.deliver(&CodedMsg {
            batch: 2, // right batch
            group: 0,
            num_groups: 1,
            k: 1,
            group_size: 1,
            payload_len: 16,
            coeffs: BitVec::unit(1, 0),
            payload: {
                let mut b = Packet::new(3, 0, vec![4]).to_bytes();
                b.resize(16, 0);
                b
            },
        });
        assert!(st.is_complete());
    }

    #[test]
    fn total_rounds_known_only_after_first_header() {
        let cfg = Config::for_network(16, 3, 3);
        let mut st = DissemState::new_node(cfg, Some(1), 0);
        assert_eq!(st.total_rounds(), None);
        st.deliver(&CodedMsg {
            batch: 0,
            group: 0,
            num_groups: 2,
            k: 7,
            group_size: 4,
            payload_len: 20,
            coeffs: BitVec::zeros(4),
            payload: vec![0; 20],
        });
        let phases = 3 + cfg.d_bound.max(1) as u64;
        assert_eq!(st.total_rounds(), Some(phases * cfg.forward_phase_rounds()));
    }
}
