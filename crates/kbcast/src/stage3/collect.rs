//! The per-node collection state machine (`GRAB` + `ALARM`).
//!
//! Faithful to §2.3 of the paper:
//!
//! * **Launches.** In `OSPG(y)` every node with an unacknowledged packet
//!   draws one slot per packet uniformly from `[1, 6y]`; in `MSPG(x, z)`
//!   it draws `z` slots per packet. If two draws land on the same slot,
//!   only one packet is sent (the other copy is silently dropped) — the
//!   protocol recovers through acknowledgements and later procedures.
//! * **Lock-step unicast.** A packet transmitted in round `r` carries its
//!   addressee (the transmitter's BFS parent); the parent retransmits in
//!   round `r + 1`, and so on to the root. There is no retransmission on
//!   collision — lost copies stay unacknowledged.
//! * **Acknowledgements.** After the send window (`6y + D` rounds) the
//!   root emits one ack per packet that arrived in this procedure, spaced
//!   `ACK_SPACING = 3` rounds apart. Each relay remembers the child it
//!   received each packet from, so acks retrace the packet's path; the
//!   3-round spacing keeps concurrently travelling acks at ring distance
//!   ≥ 3, which on a BFS tree means they can never collide.
//! * **Alarms.** In the phase's closing window, every node with an
//!   unacknowledged packet floods a 1-bit alarm (epidemic broadcast).
//!   Hearing an alarm doubles everyone's estimate of `k`; a silent
//!   window ends the stage.

use std::collections::{BTreeMap, HashMap, HashSet};

use protocols::epidemic::Epidemic;
use radio_net::engine::Node;
use radio_net::graph::{Graph, NodeId};
use radio_net::rng;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::config::{Config, ACK_SPACING};
use crate::messages::{AckMsg, AlarmMsg, DataMsg, Msg};
use crate::packet::{Packet, PacketKey};
use crate::stage3::schedule::{self, ProcDesc};

/// One of this node's own packets and its delivery status.
#[derive(Clone, Debug)]
struct OwnPacket {
    packet: Packet,
    acked: bool,
}

/// Per-node state of the collection stage. Drive with `poll`/`deliver`
/// using stage-local rounds; the stage is over (for this node) once
/// [`CollectState::finished_at`] returns `Some`.
#[derive(Clone, Debug)]
pub struct CollectState {
    cfg: Config,
    my_id: u64,
    is_root: bool,
    parent: Option<u64>,

    own: Vec<OwnPacket>,

    // Phase bookkeeping.
    phase: u32,
    phase_start: u64,
    /// Total rounds of the current phase (grabbing epoch + alarm window),
    /// cached by `rebuild_phase`: `advance` runs on every poll/delivery,
    /// and recomputing the length means rebuilding the whole `GRAB`
    /// schedule (a heap allocation) each round.
    phase_len: u64,
    procs: Vec<ProcDesc>,
    grab_len: u64,
    cur_proc: usize,
    armed_proc: Option<usize>,
    launches: BTreeMap<u64, usize>,

    // Relay slots (at most one of each can be pending; see module docs).
    relay_data: Option<DataMsg>,
    relay_ack: Option<AckMsg>,
    from_child: HashMap<PacketKey, u64>,

    // Root-only state.
    collected: Vec<Packet>,
    collected_keys: HashSet<PacketKey>,
    proc_arrivals: Vec<PacketKey>,
    proc_arrival_set: HashSet<PacketKey>,

    // Alarm window state.
    alarm: Epidemic,
    alarm_armed: Option<u32>,
    heard_alarm: bool,

    finished: Option<u64>,
}

impl CollectState {
    /// Creates the state machine at stage-local round `created_local`
    /// (0 for nodes present at the stage boundary; later for nodes woken
    /// mid-stage, which fast-forward to the current phase).
    ///
    /// `parent` is the BFS parent (`None` for the root or unlabeled
    /// nodes); `packets` are the node's initial packets. The root's own
    /// packets count as already collected.
    #[must_use]
    pub fn new(
        cfg: Config,
        my_id: u64,
        is_root: bool,
        parent: Option<u64>,
        packets: Vec<Packet>,
        created_local: u64,
    ) -> Self {
        let (phase, phase_start) = schedule::phase_at(created_local, &cfg);
        let mut st = CollectState {
            cfg,
            my_id,
            is_root,
            parent,
            own: Vec::new(),
            phase,
            phase_start,
            phase_len: 0,
            procs: Vec::new(),
            grab_len: 0,
            cur_proc: 0,
            armed_proc: None,
            launches: BTreeMap::new(),
            relay_data: None,
            relay_ack: None,
            from_child: HashMap::new(),
            collected: Vec::new(),
            collected_keys: HashSet::new(),
            proc_arrivals: Vec::new(),
            proc_arrival_set: HashSet::new(),
            alarm: Epidemic::new(cfg.delta_bound, false),
            alarm_armed: None,
            heard_alarm: false,
            finished: None,
        };
        if is_root {
            for p in packets {
                st.collected_keys.insert(p.key);
                st.collected.push(p);
            }
        } else {
            st.own = packets
                .into_iter()
                .map(|packet| OwnPacket {
                    packet,
                    acked: false,
                })
                .collect();
        }
        st.rebuild_phase();
        st
    }

    /// Stage-local round at which the stage ended (end of the first
    /// alarm-free phase), once known.
    #[must_use]
    pub fn finished_at(&self) -> Option<u64> {
        self.finished
    }

    /// Collection phase currently executing (0-based).
    #[must_use]
    pub fn phase(&self) -> u32 {
        self.phase
    }

    /// Packets collected so far (root only; empty elsewhere), in arrival
    /// order with the root's own packets first.
    #[must_use]
    pub fn collected(&self) -> &[Packet] {
        &self.collected
    }

    /// `true` while this node has a packet without an acknowledgement.
    #[must_use]
    pub fn has_unacked(&self) -> bool {
        self.own.iter().any(|p| !p.acked)
    }

    fn rebuild_phase(&mut self) {
        let x = schedule::estimate_for_phase(self.phase, &self.cfg);
        self.procs = schedule::grab_schedule(x, &self.cfg);
        self.grab_len = self.procs.last().map_or(0, ProcDesc::end);
        self.phase_len = self.grab_len + self.cfg.epidemic_window_rounds();
        self.cur_proc = 0;
        self.armed_proc = None;
        self.launches.clear();
        self.relay_data = None;
        self.relay_ack = None;
        self.proc_arrivals.clear();
        self.proc_arrival_set.clear();
        self.heard_alarm = false;
    }

    /// Advances phase bookkeeping to cover stage-local round `local`,
    /// finalizing completed phases (an alarm-free phase ends the stage).
    fn advance(&mut self, local: u64) {
        while self.finished.is_none() {
            let len = self.phase_len;
            if local < self.phase_start + len {
                return;
            }
            // Finalize: silence during an armed alarm window ends the
            // stage. (A node that never armed the window — woken too
            // late — conservatively assumes an alarm and keeps going.)
            if self.alarm_armed == Some(self.phase) && !self.heard_alarm {
                self.finished = Some(self.phase_start + len);
                return;
            }
            self.phase += 1;
            self.phase_start += len;
            self.rebuild_phase();
        }
    }

    /// Draws this procedure's launch slots for all unacknowledged own
    /// packets (and resets the root's per-procedure arrival log).
    fn arm_proc(&mut self, pi: usize, rng: &mut impl Rng) {
        self.armed_proc = Some(pi);
        self.launches.clear();
        self.proc_arrivals.clear();
        self.proc_arrival_set.clear();
        let proc = self.procs[pi];
        let slots = (6 * proc.y) as u64;
        for idx in 0..self.own.len() {
            if self.own[idx].acked {
                continue;
            }
            for _ in 0..proc.copies {
                let slot = rng.gen_range(1..=slots);
                // Same slot already taken (by this or another packet):
                // "the node unicasts only one of them".
                self.launches.entry(slot).or_insert(idx);
            }
        }
    }

    /// Transmit decision at stage-local round `local`.
    pub fn poll(&mut self, local: u64, rng: &mut impl Rng) -> Option<Msg> {
        self.advance(local);
        if self.finished.is_some() {
            return None;
        }
        let pl = local - self.phase_start;
        if pl < self.grab_len {
            self.poll_grab(pl, rng)
        } else {
            self.poll_alarm(pl - self.grab_len, rng)
        }
    }

    /// Earliest future stage-local round at which [`CollectState::poll`]
    /// may act again (see `radio_net::engine::Node::next_activity`).
    /// Call right after `poll(local)` or `deliver(local, _)`, so
    /// `advance` has run; it reads the state and mutates nothing.
    ///
    /// Every phase has two mandatory polls: the alarm-window start
    /// (where `poll_alarm` arms the window — the finish decision
    /// depends on it) and the next phase start (where `advance`
    /// finalizes). In the grabbing epoch a pending relay slot keeps the
    /// node active; the root and a source with an unacked packet act
    /// only in their scheduled slots (see `next_grab_action`); any
    /// other node is silent until the alarm window. In the alarm
    /// window a node relaying (or initiating) the alarm epidemic is
    /// active and everyone else waits for the next phase. Skipped polls
    /// draw no randomness and transmit nothing; the cursor catch-up in
    /// `advance`/`poll_grab` replays deterministically at the next
    /// poll, and a reception that changes the schedule (a relay slot,
    /// an ack, a root arrival, an alarm) changes this answer.
    #[must_use]
    pub fn next_activity(&self, local: u64) -> u64 {
        if self.finished.is_some() {
            return u64::MAX;
        }
        let pl = local - self.phase_start;
        if pl >= self.grab_len {
            if self.alarm_armed != Some(self.phase) || self.heard_alarm {
                // Not yet armed (defensive; post-poll this cannot
                // happen) or in the alarm epidemic: active every round.
                return local + 1;
            }
            return self.phase_start + self.phase_len;
        }
        if self.relay_data.is_some() || self.relay_ack.is_some() {
            return local + 1;
        }
        if !self.is_root && !self.has_unacked() {
            return self.phase_start + self.grab_len;
        }
        self.next_grab_action(local, pl)
    }

    /// [`CollectState::next_activity`] inside the grabbing epoch for the
    /// root and for a source with an unacked packet (no relay pending):
    /// the first of the procedure's next scheduled action — the root's
    /// next ack-emission round, a source's next launch slot still
    /// holding an unacked packet — and the next procedure start, where
    /// `arm_proc` draws the new slots (acks heard meanwhile change what
    /// it draws, so that poll stays at its exact round). The last
    /// procedure's end is the alarm-window start.
    fn next_grab_action(&self, local: u64, pl: u64) -> u64 {
        let mut p = self.cur_proc;
        while p + 1 < self.procs.len() && self.procs[p].end() <= pl {
            p += 1;
        }
        let proc = self.procs[p];
        if pl < proc.start || self.armed_proc != Some(p) {
            // Late join, or the procedure is not armed yet: the next
            // poll arms it.
            return local + 1;
        }
        let r = pl - proc.start;
        let mut next = self.procs.get(p + 1).map_or(self.grab_len, |q| q.start) - proc.start;
        if self.is_root {
            // Ack `i` leaves at `send_end + 1 + i·ACK_SPACING`.
            let first = proc.send_end + 1;
            let i = if r < first {
                0
            } else {
                (r - first) / ACK_SPACING + 1
            };
            if usize::try_from(i).is_ok_and(|i| i < self.proc_arrivals.len()) {
                next = next.min(first + i * ACK_SPACING);
            }
        } else if self.parent.is_some() {
            if let Some((&slot, _)) = self
                .launches
                .range(r + 1..)
                .find(|&(_, &idx)| !self.own[idx].acked)
            {
                next = next.min(slot);
            }
        }
        self.phase_start + proc.start + next
    }

    fn poll_grab(&mut self, pl: u64, rng: &mut impl Rng) -> Option<Msg> {
        // Fast path: a non-root node with no packets of its own and no
        // pending relay can never transmit in the grabbing epoch, and
        // skipping the bookkeeping is observationally identical — its
        // `arm_proc` would draw no launch slots (no RNG use) and only
        // clear already-empty collections. The procedure cursor catches
        // up lazily the next time the full path runs.
        if !self.is_root
            && self.own.is_empty()
            && self.relay_data.is_none()
            && self.relay_ack.is_none()
        {
            return None;
        }
        while self.cur_proc + 1 < self.procs.len() && self.procs[self.cur_proc].end() <= pl {
            self.cur_proc += 1;
        }
        let proc = self.procs[self.cur_proc];
        if pl < proc.start {
            // Only possible right after a phase rebuild on a late join.
            return None;
        }
        let r = pl - proc.start;
        if self.armed_proc != Some(self.cur_proc) {
            self.arm_proc(self.cur_proc, rng);
        }
        // Priority 1: relay a packet received last round.
        if let Some(d) = self.relay_data.take() {
            return Some(Msg::Data(d));
        }
        // Priority 2: relay an acknowledgement received last round.
        if let Some(a) = self.relay_ack.take() {
            return Some(Msg::Ack(a));
        }
        if r <= proc.send_end {
            // Own launch window.
            if let Some(&idx) = self.launches.get(&r) {
                if !self.own[idx].acked {
                    if let Some(parent) = self.parent {
                        return Some(Msg::Data(DataMsg {
                            from: self.my_id,
                            to: parent,
                            packet: self.own[idx].packet.clone(),
                        }));
                    }
                }
            }
        } else if self.is_root {
            // Ack emission window: one ack every `ACK_SPACING` rounds.
            let since = r - proc.send_end - 1;
            if since.is_multiple_of(ACK_SPACING) {
                let i = usize::try_from(since / ACK_SPACING).expect("ack index fits");
                if let Some(&key) = self.proc_arrivals.get(i) {
                    if let Some(&child) = self.from_child.get(&key) {
                        return Some(Msg::Ack(AckMsg { to: child, key }));
                    }
                }
            }
        }
        None
    }

    fn poll_alarm(&mut self, al: u64, rng: &mut impl Rng) -> Option<Msg> {
        if self.alarm_armed != Some(self.phase) {
            // Bounded retries: past `max_collect_phases` a node stops
            // initiating alarms (it still relays heard ones), so a
            // channel faulted into permanent silence ends the stage as
            // a truthful failure instead of doubling the estimate until
            // the phase schedule overflows. Unreachable in clean runs —
            // the estimate grows 2^phase-fold. See `Config`.
            let initiator = self.has_unacked() && self.phase < self.cfg.max_collect_phases;
            self.alarm.reset(initiator);
            self.heard_alarm = initiator;
            self.alarm_armed = Some(self.phase);
            // Stale relay slots must not leak into the alarm window.
            self.relay_data = None;
            self.relay_ack = None;
        }
        self.alarm
            .poll(al, rng)
            .then_some(Msg::Alarm(AlarmMsg { phase: self.phase }))
    }

    /// Handles a received message at stage-local round `local`.
    pub fn deliver(&mut self, local: u64, msg: &Msg) {
        self.advance(local);
        if self.finished.is_some() {
            return;
        }
        match msg {
            Msg::Data(d) if d.to == self.my_id => self.on_data(d),
            Msg::Ack(a) if a.to == self.my_id => self.on_ack(a),
            Msg::Alarm(al) => self.on_alarm(al),
            _ => {}
        }
    }

    fn on_data(&mut self, d: &DataMsg) {
        let key = d.packet.key;
        self.from_child.insert(key, d.from);
        if self.is_root {
            if self.collected_keys.insert(key) {
                self.collected.push(d.packet.clone());
            }
            if self.proc_arrival_set.insert(key) {
                self.proc_arrivals.push(key);
            }
        } else if let Some(parent) = self.parent {
            self.relay_data = Some(DataMsg {
                from: self.my_id,
                to: parent,
                packet: d.packet.clone(),
            });
        }
    }

    fn on_ack(&mut self, a: &AckMsg) {
        if a.key.origin == self.my_id {
            if let Some(p) = self.own.iter_mut().find(|p| p.packet.key == a.key) {
                p.acked = true;
            }
        } else if let Some(&child) = self.from_child.get(&a.key) {
            self.relay_ack = Some(AckMsg {
                to: child,
                key: a.key,
            });
        }
    }

    fn on_alarm(&mut self, al: &AlarmMsg) {
        if al.phase == self.phase {
            self.heard_alarm = true;
            self.alarm_armed = Some(self.phase);
            self.alarm.inform();
        }
    }
}

/// Standalone adapter running [`CollectState`] directly on a
/// [`radio_net::engine::Engine`] from stage-local round 0, for tests and
/// the Lemma 4 experiment of Stage 3 in isolation: the BFS tree is
/// installed by the harness ([`CollectNode::on_tree`]) instead of being
/// built by Stage 2.
#[derive(Debug)]
pub struct CollectNode {
    st: CollectState,
    rng: SmallRng,
}

impl CollectNode {
    /// Wraps a state machine created at stage-local round 0.
    #[must_use]
    pub fn new(st: CollectState, rng: SmallRng) -> Self {
        CollectNode { st, rng }
    }

    /// One node per vertex of `graph`, rooted at `root`: every other
    /// node's BFS parent is its smallest-id neighbor one ring closer to
    /// the root, node `i` starts with `packets[i]` and draws from
    /// `rng::stream(seed, i)`.
    ///
    /// # Panics
    ///
    /// Panics if `graph` is disconnected or `packets` does not hold one
    /// list per node.
    #[must_use]
    pub fn on_tree(
        graph: &Graph,
        cfg: Config,
        root: usize,
        packets: Vec<Vec<Packet>>,
        seed: u64,
    ) -> Vec<Self> {
        assert_eq!(packets.len(), graph.len(), "one packet list per node");
        let dist = graph.bfs_distances(NodeId::new(root));
        let parent_of = |i: usize| -> Option<u64> {
            if i == root {
                return None;
            }
            let di = dist[i].expect("connected graph");
            graph
                .neighbors(NodeId::new(i))
                .iter()
                .find(|&&p| dist[p.index()] == Some(di - 1))
                .map(|p| p.index() as u64)
        };
        packets
            .into_iter()
            .enumerate()
            .map(|(i, own)| {
                let st = CollectState::new(cfg, i as u64, i == root, parent_of(i), own, 0);
                CollectNode::new(st, rng::stream(seed, i as u64))
            })
            .collect()
    }

    /// The wrapped state machine.
    #[must_use]
    pub fn state(&self) -> &CollectState {
        &self.st
    }
}

impl Node for CollectNode {
    type Msg = Msg;
    fn poll(&mut self, round: u64) -> Option<Msg> {
        self.st.poll(round, &mut self.rng)
    }
    fn receive(&mut self, round: u64, msg: &Msg) {
        self.st.deliver(round, msg);
    }
    fn is_done(&self) -> bool {
        self.st.finished_at().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_net::dyntopo::BuiltTopology;
    use radio_net::engine::{Engine, NoCd};
    use radio_net::topology::Topology;

    /// Builds a Stage 3-only network on `topology` with root `root` and
    /// `packets_at[i]` packets initially at node `i`.
    fn run_collection(
        topology: &Topology,
        root: usize,
        packets_at: &[usize],
        seed: u64,
    ) -> (bool, Vec<Packet>, u64, u32) {
        let g = topology.build(seed).unwrap();
        let n = g.len();
        let cfg = Config::for_network(n, g.diameter().unwrap(), g.max_degree());
        let packets: Vec<Vec<Packet>> = (0..n)
            .map(|i| {
                (0..packets_at[i])
                    .map(|s| Packet::new(i as u64, s as u32, vec![i as u8, s as u8]))
                    .collect()
            })
            .collect();
        let mut expected: Vec<Packet> = packets.iter().flatten().cloned().collect();
        let nodes = CollectNode::on_tree(&g, cfg, root, packets, seed);
        let mut e = Engine::new(g, nodes, (0..n).map(NodeId::new)).unwrap();
        let cap = 80 * schedule::phase_rounds(cfg.initial_estimate(), &cfg);
        let ok = e.run_until_all_done(cap);
        let rounds = e.round();
        let root_node = e.node(NodeId::new(root)).state();
        let phases = root_node.phase();
        let mut got: Vec<Packet> = root_node.collected().to_vec();
        got.sort_by_key(|p| p.key);
        expected.sort_by_key(|p| p.key);
        (ok && got == expected, got, rounds, phases)
    }

    #[test]
    fn collects_from_single_source_on_path() {
        for seed in 0..3 {
            let n = 16;
            let mut packets = vec![0; n];
            packets[n - 1] = 3; // far end
            let (ok, got, _, _) = run_collection(&Topology::Path { n }, 0, &packets, seed);
            assert!(ok, "seed {seed}: got {} packets", got.len());
        }
    }

    #[test]
    fn collects_spread_packets_on_grid() {
        for seed in 0..3 {
            let n = 25;
            let packets = vec![1; n]; // one packet everywhere (k = n)
            let (ok, got, _, _) =
                run_collection(&Topology::Grid2d { rows: 5, cols: 5 }, 12, &packets, seed);
            assert!(ok, "seed {seed}: got {}", got.len());
        }
    }

    #[test]
    fn collects_bursty_load_on_star() {
        for seed in 0..3 {
            let n = 20;
            let mut packets = vec![0; n];
            packets[5] = 40; // one node with many packets
            packets[9] = 1;
            let (ok, got, _, _) = run_collection(&Topology::Star { n }, 0, &packets, seed);
            assert!(ok, "seed {seed}: got {}", got.len());
        }
    }

    #[test]
    fn root_keeps_its_own_packets() {
        let n = 8;
        let mut packets = vec![0; n];
        packets[0] = 2; // root's packets
        packets[3] = 1;
        let (ok, got, _, _) = run_collection(&Topology::Path { n }, 0, &packets, 7);
        assert!(ok, "got {}", got.len());
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn large_k_forces_estimate_doubling() {
        // k far above x0 = (D + log n) log n: the stage must raise
        // alarms, double, and still terminate with everything collected.
        let n = 10;
        let cfg_probe = Config::for_network(n, 9, 2);
        let x0 = cfg_probe.initial_estimate();
        // GRAB(x) offers ~12x launch slots across its halving sequence,
        // so k must be well beyond that to force an alarm.
        let k = 20 * x0;
        let mut packets = vec![0; n];
        packets[9] = k;
        let (ok, got, _, phases) = run_collection(&Topology::Path { n }, 0, &packets, 1);
        assert!(ok, "got {} of {}", got.len(), k);
        assert!(phases >= 1, "expected at least one doubling, got {phases}");
    }

    #[test]
    fn one_overloaded_ospg_loses_packets() {
        // k far above the 6y launch slots of the first OSPG(y): packets
        // drawing a taken slot are not sent in this procedure, so the
        // root holds at most 6y distinct ones when its window closes.
        let g = Topology::Path { n: 6 }.build(0).unwrap();
        let cfg = Config::for_network(6, 5, 2);
        let ospg = schedule::grab_schedule(cfg.initial_estimate(), &cfg)[0];
        let k = 60 * ospg.y;
        let mut packets = vec![Vec::new(); 6];
        packets[5] = (0..k).map(|s| Packet::new(5, s as u32, vec![1])).collect();
        let nodes = CollectNode::on_tree(&g, cfg, 0, packets, 3);
        let mut e = Engine::new(g, nodes, (0..6).map(NodeId::new)).unwrap();
        e.run(ospg.send_end);
        let got = e.node(NodeId::new(0)).state().collected().len();
        assert!(got > 0 && got <= 6 * ospg.y, "got {got}");
    }

    #[test]
    fn silenced_channel_fails_truthfully_at_the_retry_cap() {
        // A channel that delivers nothing, ever: alarms can never reach
        // the root, so an uncapped node would double its estimate each
        // phase forever. `max_collect_phases` must instead stop alarm
        // initiation, after which the silent armed phase ends the stage
        // as a truthful failure.
        struct DropAll;
        impl radio_net::faults::FaultModel for DropAll {
            fn drop_delivery(&mut self, _round: u64, _from: usize, _to: usize) -> bool {
                true
            }
        }

        let n = 4;
        let g = Topology::Path { n }.build(0).unwrap();
        let mut cfg = Config::for_network(n, g.diameter().unwrap(), g.max_degree());
        cfg.max_collect_phases = 3;
        let nodes: Vec<CollectNode> = (0..n)
            .map(|i| {
                let packets = if i == n - 1 {
                    vec![Packet::new(i as u64, 0, vec![7])]
                } else {
                    Vec::new()
                };
                let st = CollectState::new(cfg, i as u64, i == 0, Some(0), packets, 0);
                CollectNode::new(st, rng::stream(0, i as u64))
            })
            .collect();
        let mut e = Engine::<_, _, NoCd>::with_topology(
            g,
            nodes,
            (0..n).map(NodeId::new),
            DropAll,
            BuiltTopology::Static,
        )
        .unwrap();
        let cap = 80 * schedule::phase_rounds(cfg.initial_estimate(), &cfg);
        assert!(
            e.run_until_all_done(cap),
            "every node must terminate despite total silence"
        );
        let stuck = e.node(NodeId::new(n - 1)).state();
        assert!(stuck.has_unacked(), "the packet was never collected");
        assert_eq!(
            stuck.phase(),
            cfg.max_collect_phases,
            "alarm initiation must stop exactly at the cap"
        );
        assert!(e.node(NodeId::new(0)).state().collected().is_empty());
    }

    #[test]
    fn no_packets_anywhere_terminates_immediately() {
        // k = 0: no node alarms, the first phase is silent, stage ends.
        let n = 6;
        let (ok, got, rounds, phases) = run_collection(&Topology::Path { n }, 0, &vec![0; n], 3);
        assert!(ok);
        assert!(got.is_empty());
        assert_eq!(phases, 0);
        let cfg = Config::for_network(6, 5, 2);
        // The boundary is detected while processing the first round after
        // the phase, hence the +1.
        assert_eq!(
            rounds,
            schedule::phase_rounds(cfg.initial_estimate(), &cfg) + 1
        );
    }

    #[test]
    fn finished_at_matches_phase_boundary() {
        let cfg = Config::for_network(16, 4, 4);
        let mut st = CollectState::new(cfg, 0, true, None, Vec::new(), 0);
        let mut rng = rng::stream(0, 0);
        let end = schedule::phase_rounds(cfg.initial_estimate(), &cfg);
        for r in 0..end {
            assert_eq!(st.finished_at(), None, "round {r}");
            let _ = st.poll(r, &mut rng);
        }
        let _ = st.poll(end, &mut rng);
        assert_eq!(st.finished_at(), Some(end));
    }

    #[test]
    fn late_created_state_fast_forwards() {
        let cfg = Config::for_network(64, 6, 4);
        let x0 = cfg.initial_estimate();
        let mid_phase1 = schedule::phase_rounds(x0, &cfg) + 5;
        let st = CollectState::new(cfg, 3, false, Some(0), Vec::new(), mid_phase1);
        assert_eq!(st.phase(), 1);
    }

    #[test]
    fn relay_records_child_and_routes_ack_back() {
        // Direct state-machine test of the ack routing: relay 5 hears
        // data from child 7 addressed to it, forwards up to parent 3,
        // then routes the ack for that packet back down to 7.
        let cfg = Config::for_network(16, 4, 4);
        let mut relay = CollectState::new(cfg, 5, false, Some(3), Vec::new(), 0);
        let mut rng = rng::stream(0, 5);
        let pkt = Packet::new(9, 0, vec![1]);
        let key = pkt.key;
        relay.deliver(
            2,
            &Msg::Data(DataMsg {
                from: 7,
                to: 5,
                packet: pkt.clone(),
            }),
        );
        // Next poll forwards the packet upward.
        let out = relay.poll(3, &mut rng);
        match out {
            Some(Msg::Data(d)) => {
                assert_eq!(d.from, 5);
                assert_eq!(d.to, 3);
                assert_eq!(d.packet, pkt);
            }
            other => panic!("expected upward forward, got {other:?}"),
        }
        // An ack addressed to the relay is routed to the recorded child.
        relay.deliver(10, &Msg::Ack(AckMsg { to: 5, key }));
        let out = relay.poll(11, &mut rng);
        match out {
            Some(Msg::Ack(a)) => {
                assert_eq!(a.to, 7);
                assert_eq!(a.key, key);
            }
            other => panic!("expected downward ack, got {other:?}"),
        }
    }

    #[test]
    fn origin_marks_packet_acked() {
        let cfg = Config::for_network(16, 4, 4);
        let pkt = Packet::new(2, 0, vec![5]);
        let key = pkt.key;
        let mut origin = CollectState::new(cfg, 2, false, Some(0), vec![pkt], 0);
        assert!(origin.has_unacked());
        origin.deliver(5, &Msg::Ack(AckMsg { to: 2, key }));
        assert!(!origin.has_unacked());
        // Duplicate acks are harmless.
        origin.deliver(6, &Msg::Ack(AckMsg { to: 2, key }));
        assert!(!origin.has_unacked());
    }

    #[test]
    fn data_not_addressed_to_me_is_ignored() {
        let cfg = Config::for_network(16, 4, 4);
        let mut relay = CollectState::new(cfg, 5, false, Some(3), Vec::new(), 0);
        let mut rng = rng::stream(0, 5);
        relay.deliver(
            2,
            &Msg::Data(DataMsg {
                from: 7,
                to: 6, // someone else's parent
                packet: Packet::new(9, 0, vec![1]),
            }),
        );
        assert_eq!(relay.poll(3, &mut rng), None);
    }

    #[test]
    fn root_acks_duplicates_once_per_procedure() {
        let cfg = Config::for_network(16, 4, 4);
        let mut root = CollectState::new(cfg, 0, true, None, Vec::new(), 0);
        let mut rng = rng::stream(0, 0);
        let _ = root.poll(0, &mut rng); // arm the first procedure
        let pkt = Packet::new(3, 0, vec![7]);
        for round in 1..3 {
            root.deliver(
                round,
                &Msg::Data(DataMsg {
                    from: 1,
                    to: 0,
                    packet: pkt.clone(),
                }),
            );
        }
        assert_eq!(root.collected().len(), 1);
    }

    #[test]
    fn alarm_keeps_stage_alive() {
        // A lone unacked packet holder with no parent (unlabeled) alarms
        // forever; its phase counter must keep increasing.
        let cfg = Config::for_network(4, 2, 2);
        let pkt = Packet::new(1, 0, vec![1]);
        let mut st = CollectState::new(cfg, 1, false, None, vec![pkt], 0);
        let mut rng = rng::stream(1, 1);
        let two_phases = schedule::phase_rounds(cfg.initial_estimate(), &cfg)
            + schedule::phase_rounds(2 * cfg.initial_estimate(), &cfg);
        for r in 0..=two_phases {
            let _ = st.poll(r, &mut rng);
        }
        assert_eq!(st.finished_at(), None);
        assert_eq!(st.phase(), 2);
        assert!(st.has_unacked());
    }
}
