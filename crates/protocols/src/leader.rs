//! Stage 1: leader election by binary search over the id space.
//!
//! Among the *candidates* (nodes holding at least one packet, awake at
//! round 0), the highest id must win. The classic construction the paper
//! cites (Fact 1): binary-search the id space, one network-wide OR per
//! bit. Each OR is a 1-bit epidemic flood inside a fixed window of
//! `O((D + log n)·log Δ)` rounds: candidates whose id matches the probed
//! prefix initiate the flood, every informed node relays, and "heard a
//! flood by the window's end" answers the probe. `⌈log(id space)⌉`
//! windows give `O((D + log n)·log n·log Δ)` rounds in total.
//!
//! Non-candidates act as pure relays and need no id bookkeeping; every
//! candidate tracks the decided prefix locally (silence = 0, flood = 1),
//! so at the end all candidates agree on the winner id w.h.p., and the
//! winner knows it is the leader.

use rand::Rng;

use crate::epidemic::Epidemic;
use radio_net::message::MessageSize;

/// Parameters of a leader election, shared by all nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeaderConfig {
    /// Bits in the id space (ids are `< 2^id_bits`).
    pub id_bits: u32,
    /// Rounds per OR window; see
    /// [`crate::timing::epidemic_window_rounds`].
    pub window_rounds: u64,
    /// Maximum-degree bound Δ (sets the Decay epoch length).
    pub delta_bound: usize,
}

impl LeaderConfig {
    /// Total rounds of the election: one window per id bit.
    #[must_use]
    pub fn total_rounds(&self) -> u64 {
        u64::from(self.id_bits) * self.window_rounds
    }
}

/// The flood message of one probe window.
///
/// The window index makes stale receptions at window boundaries
/// harmless; on the wire this is a 1-bit alarm plus the implicit window
/// counter, within the model's message budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeMsg {
    /// Which binary-search iteration (= window) this flood answers.
    pub iter: u32,
}

impl MessageSize for ProbeMsg {
    fn size_bits(&self) -> usize {
        32
    }
}

/// Outcome of the election at one node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LeaderOutcome {
    /// The elected leader's id (the maximum candidate id, w.h.p.).
    pub leader_id: u64,
    /// Whether this node is the leader.
    pub is_leader: bool,
}

/// Per-node leader-election state machine.
///
/// Drive it with `poll`/`deliver` using rounds local to the election
/// stage, then call [`LeaderElection::finalize`] once `total_rounds`
/// have elapsed and read [`LeaderElection::outcome`].
#[derive(Clone, Debug)]
pub struct LeaderElection {
    cfg: LeaderConfig,
    my_id: u64,
    candidate: bool,
    /// Bits decided so far, placed at their final positions (MSB-first).
    prefix: u64,
    /// Window currently being processed.
    window: u32,
    /// Whether this node initiated or heard the current window's flood.
    heard: bool,
    relay: Epidemic,
    finalized: bool,
}

impl LeaderElection {
    /// Creates the state machine. `candidate` nodes compete with id
    /// `my_id`; others only relay.
    ///
    /// # Panics
    ///
    /// Panics if `my_id` does not fit in `cfg.id_bits` bits.
    #[must_use]
    pub fn new(cfg: LeaderConfig, my_id: u64, candidate: bool) -> Self {
        assert!(
            cfg.id_bits >= 64 || my_id < (1u64 << cfg.id_bits),
            "id {my_id} does not fit in {} bits",
            cfg.id_bits
        );
        let mut le = LeaderElection {
            cfg,
            my_id,
            candidate,
            prefix: 0,
            window: 0,
            heard: false,
            relay: Epidemic::new(cfg.delta_bound, false),
            finalized: false,
        };
        le.arm_window(0);
        le
    }

    /// The probed bit position of window `w` (MSB-first).
    fn bit_pos(&self, w: u32) -> u32 {
        self.cfg.id_bits - 1 - w
    }

    /// `true` while this candidate's id still matches the decided prefix.
    fn alive(&self) -> bool {
        if !self.candidate {
            return false;
        }
        let w = self.window;
        if w == 0 {
            return true;
        }
        // Compare the top `w` bits of my_id with the prefix.
        let shift = self.cfg.id_bits - w;
        (self.my_id >> shift) == (self.prefix >> shift)
    }

    fn arm_window(&mut self, w: u32) {
        self.window = w;
        if w >= self.cfg.id_bits {
            return;
        }
        let initiator = self.alive() && (self.my_id >> self.bit_pos(w)) & 1 == 1;
        self.heard = initiator;
        self.relay.reset(initiator);
    }

    fn close_window(&mut self) {
        if self.window < self.cfg.id_bits && self.heard && self.candidate {
            self.prefix |= 1 << self.bit_pos(self.window);
        }
    }

    /// Advances internal window bookkeeping to the window containing
    /// `local_round`, closing completed windows on the way.
    fn sync(&mut self, local_round: u64) {
        if self.cfg.id_bits == 0 {
            return;
        }
        let target =
            u32::try_from(local_round / self.cfg.window_rounds).expect("window index fits u32");
        while self.window < target && self.window < self.cfg.id_bits {
            self.close_window();
            self.arm_window(self.window + 1);
        }
    }

    /// Transmit decision at `local_round` (rounds since the election
    /// began). Returns the probe message to flood, if any.
    pub fn poll(&mut self, local_round: u64, rng: &mut impl Rng) -> Option<ProbeMsg> {
        self.sync(local_round);
        if self.window >= self.cfg.id_bits {
            return None;
        }
        let within = local_round % self.cfg.window_rounds;
        self.relay
            .poll(within, rng)
            .then_some(ProbeMsg { iter: self.window })
    }

    /// Earliest future local round at which [`LeaderElection::poll`]
    /// may act again (see `radio_net::engine::Node::next_activity`).
    /// Call right after `poll(local_round)` or `deliver(local_round, _)`:
    /// both sync the window state.
    ///
    /// An informed relay transmits by decay every round of the current
    /// window; an uninformed candidate is silent until the next window
    /// is armed (`sync` replays the skipped window bookkeeping
    /// deterministically at that poll); an uninformed non-candidate
    /// stays silent until a reception of the current window's probe
    /// informs it, after which this answer is the next round.
    #[must_use]
    pub fn next_activity(&self, local_round: u64) -> u64 {
        if self.window >= self.cfg.id_bits {
            return u64::MAX;
        }
        if self.relay.is_informed() {
            return local_round + 1;
        }
        if self.candidate {
            return u64::from(self.window + 1) * self.cfg.window_rounds;
        }
        u64::MAX
    }

    /// Handles a received probe flood.
    pub fn deliver(&mut self, local_round: u64, msg: &ProbeMsg) {
        self.sync(local_round);
        if msg.iter == self.window && self.window < self.cfg.id_bits {
            self.heard = true;
            self.relay.inform();
        }
    }

    /// Closes the final window. Call once `total_rounds` have elapsed;
    /// idempotent.
    pub fn finalize(&mut self) {
        if self.finalized {
            return;
        }
        while self.window < self.cfg.id_bits {
            self.close_window();
            self.window += 1;
            if self.window < self.cfg.id_bits {
                self.arm_window(self.window);
            }
        }
        self.finalized = true;
    }

    /// The election outcome. `Some` only for candidates (relays do not
    /// track the prefix) after [`LeaderElection::finalize`].
    #[must_use]
    pub fn outcome(&self) -> Option<LeaderOutcome> {
        (self.finalized && self.candidate).then_some(LeaderOutcome {
            leader_id: self.prefix,
            is_leader: self.prefix == self.my_id,
        })
    }
}

/// Standalone adapter running [`LeaderElection`] directly on a
/// [`radio_net::Engine`], for tests, examples and micro-benchmarks of
/// Stage 1 in isolation.
#[derive(Debug)]
pub struct ElectionNode {
    le: LeaderElection,
    rng: rand::rngs::SmallRng,
}

impl ElectionNode {
    /// Creates the adapter (see [`LeaderElection::new`]).
    ///
    /// # Panics
    ///
    /// Panics if `my_id` does not fit in `cfg.id_bits` bits.
    #[must_use]
    pub fn new(cfg: LeaderConfig, my_id: u64, candidate: bool, rng: rand::rngs::SmallRng) -> Self {
        ElectionNode {
            le: LeaderElection::new(cfg, my_id, candidate),
            rng,
        }
    }

    /// Finalizes and reads the outcome (see [`LeaderElection::outcome`]).
    pub fn finalize(&mut self) -> Option<LeaderOutcome> {
        self.le.finalize();
        self.le.outcome()
    }
}

impl radio_net::engine::Node for ElectionNode {
    type Msg = ProbeMsg;
    fn poll(&mut self, round: u64) -> Option<ProbeMsg> {
        self.le.poll(round, &mut self.rng)
    }
    fn receive(&mut self, round: u64, msg: &ProbeMsg) {
        self.le.deliver(round, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing;
    use radio_net::engine::Engine;
    use radio_net::graph::NodeId;
    use radio_net::rng;
    use radio_net::topology::Topology;

    /// Runs an election where node i's id is `ids[i]` and the candidate
    /// set is `candidates`; returns per-candidate outcomes.
    fn run_election(
        topology: &Topology,
        ids: &[u64],
        candidates: &[usize],
        seed: u64,
    ) -> Vec<(usize, LeaderOutcome)> {
        let g = topology.build(seed).unwrap();
        let n = g.len();
        assert_eq!(ids.len(), n);
        let delta = g.max_degree();
        let d = g.diameter().unwrap();
        let id_space = usize::try_from(ids.iter().max().copied().unwrap_or(0) + 1).unwrap();
        let cfg = LeaderConfig {
            id_bits: u32::try_from(timing::ceil_log2(id_space).max(1)).unwrap(),
            window_rounds: timing::epidemic_window_rounds(n, d, delta, 3),
            delta_bound: delta,
        };
        let nodes: Vec<ElectionNode> = (0..n)
            .map(|i| {
                ElectionNode::new(
                    cfg,
                    ids[i],
                    candidates.contains(&i),
                    rng::stream(seed, i as u64),
                )
            })
            .collect();
        let awake: Vec<NodeId> = candidates.iter().map(|&c| NodeId::new(c)).collect();
        let mut e = Engine::new(g, nodes, awake).unwrap();
        e.run(cfg.total_rounds());
        let mut out = Vec::new();
        for (i, mut node) in e.into_nodes().into_iter().enumerate() {
            if let Some(o) = node.finalize() {
                out.push((i, o));
            }
        }
        out
    }

    #[test]
    fn highest_id_candidate_wins_on_path() {
        for seed in 0..5 {
            let ids: Vec<u64> = (0..20).map(|i| i as u64).collect();
            let outcomes = run_election(&Topology::Path { n: 20 }, &ids, &[2, 9, 17], seed);
            assert_eq!(outcomes.len(), 3);
            for (i, o) in &outcomes {
                assert_eq!(o.leader_id, 17, "seed {seed} node {i}");
                assert_eq!(o.is_leader, *i == 17, "seed {seed} node {i}");
            }
        }
    }

    #[test]
    fn works_with_arbitrary_ids_and_dense_graphs() {
        for seed in 0..5 {
            let ids = vec![12, 3, 30, 7, 25, 1, 19, 28, 2, 9];
            let outcomes =
                run_election(&Topology::Complete { n: 10 }, &ids, &[0, 1, 3, 5, 8], seed);
            // Max id among candidates {12, 3, 7, 1, 2} is 12 (node 0).
            for (i, o) in &outcomes {
                assert_eq!(o.leader_id, 12, "seed {seed}");
                assert_eq!(o.is_leader, *i == 0);
            }
        }
    }

    #[test]
    fn single_candidate_elects_itself() {
        let ids: Vec<u64> = (0..12).map(|i| i as u64).collect();
        let outcomes = run_election(&Topology::Grid2d { rows: 3, cols: 4 }, &ids, &[5], 1);
        assert_eq!(
            outcomes,
            vec![(
                5,
                LeaderOutcome {
                    leader_id: 5,
                    is_leader: true
                }
            )]
        );
    }

    #[test]
    fn candidate_with_id_zero() {
        let ids: Vec<u64> = vec![0, 1, 2, 3];
        let outcomes = run_election(&Topology::Path { n: 4 }, &ids, &[0], 2);
        assert_eq!(outcomes[0].1.leader_id, 0);
        assert!(outcomes[0].1.is_leader);
    }

    #[test]
    fn relays_are_silent_nonparticipants() {
        // Non-candidates return no outcome.
        let ids: Vec<u64> = (0..6).map(|i| i as u64).collect();
        let outcomes = run_election(&Topology::Path { n: 6 }, &ids, &[1, 4], 3);
        let holders: Vec<usize> = outcomes.iter().map(|(i, _)| *i).collect();
        assert_eq!(holders, vec![1, 4]);
    }

    #[test]
    fn random_topologies_and_many_seeds() {
        for seed in 0..8 {
            let n = 30;
            let ids: Vec<u64> = (0..n as u64).map(|i| (i * 7) % 32).collect();
            let candidates: Vec<usize> = vec![0, 5, 11, 23, 29];
            let expect = candidates.iter().map(|&c| ids[c]).max().unwrap();
            let outcomes = run_election(&Topology::Gnp { n, p: 0.15 }, &ids, &candidates, seed);
            for (i, o) in &outcomes {
                assert_eq!(o.leader_id, expect, "seed {seed} node {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_id_rejected() {
        let cfg = LeaderConfig {
            id_bits: 3,
            window_rounds: 10,
            delta_bound: 2,
        };
        let _ = LeaderElection::new(cfg, 8, true);
    }

    #[test]
    fn outcome_requires_finalize() {
        let cfg = LeaderConfig {
            id_bits: 2,
            window_rounds: 4,
            delta_bound: 2,
        };
        let mut le = LeaderElection::new(cfg, 3, true);
        assert_eq!(le.outcome(), None);
        le.finalize();
        let o = le.outcome().unwrap();
        // Lone candidate: every probed bit it holds becomes 1 => itself.
        assert_eq!(o.leader_id, 3);
        assert!(o.is_leader);
        // Idempotent.
        le.finalize();
        assert_eq!(le.outcome().unwrap().leader_id, 3);
    }

    #[test]
    fn total_rounds_formula() {
        let cfg = LeaderConfig {
            id_bits: 5,
            window_rounds: 12,
            delta_bound: 4,
        };
        assert_eq!(cfg.total_rounds(), 60);
    }
}
