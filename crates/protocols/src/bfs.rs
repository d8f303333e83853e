//! Stage 2: distributed BFS-tree construction (BGI 1992).
//!
//! The stage runs `d_bound` phases of `Θ(log n · log Δ)` rounds. In phase
//! `d` exactly the nodes that learned distance `d` announce
//! `(my id, my distance)` with Decay; an unlabeled listener adopts the
//! first announcement it receives, setting `parent = sender` and
//! `distance = sender's + 1`. By induction every node at true distance
//! `d` is labeled during phase `d-1`, w.h.p. (Theorem 1 of the paper).

use rand::Rng;

use crate::decay::Decay;
use radio_net::message::MessageSize;

/// Parameters of the BFS stage, shared by all nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BfsConfig {
    /// Rounds per phase (`c · log n` Decay epochs).
    pub phase_rounds: u64,
    /// Number of phases (an upper bound on the diameter).
    pub d_bound: usize,
    /// Maximum-degree bound Δ.
    pub delta_bound: usize,
}

impl BfsConfig {
    /// Total rounds of the BFS stage.
    #[must_use]
    pub fn total_rounds(&self) -> u64 {
        self.phase_rounds * self.d_bound as u64
    }
}

/// A BFS announcement: the transmitter's id and distance-from-root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BfsMsg {
    /// Transmitter's id.
    pub id: u64,
    /// Transmitter's distance from the root.
    pub dist: u32,
}

impl MessageSize for BfsMsg {
    fn size_bits(&self) -> usize {
        64 + 32
    }
}

/// A node's place in the constructed tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BfsLabel {
    /// Distance from the root.
    pub dist: u32,
    /// Parent id on the BFS path to the root (`None` for the root).
    pub parent: Option<u64>,
}

/// Per-node BFS-construction state machine.
///
/// The root (the Stage 1 leader) constructs itself labeled with distance
/// 0; everyone else starts unlabeled and adopts the first announcement
/// received.
#[derive(Clone, Debug)]
pub struct BfsBuild {
    cfg: BfsConfig,
    my_id: u64,
    label: Option<BfsLabel>,
    decay: Decay,
}

impl BfsBuild {
    /// Creates the state machine; `is_root` marks the Stage 1 leader.
    #[must_use]
    pub fn new(cfg: BfsConfig, my_id: u64, is_root: bool) -> Self {
        BfsBuild {
            cfg,
            my_id,
            label: is_root.then_some(BfsLabel {
                dist: 0,
                parent: None,
            }),
            decay: Decay::new(cfg.delta_bound),
        }
    }

    /// This node's label, once assigned.
    #[must_use]
    pub fn label(&self) -> Option<BfsLabel> {
        self.label
    }

    /// Transmit decision at `local_round` (rounds since the stage began).
    pub fn poll(&mut self, local_round: u64, rng: &mut impl Rng) -> Option<BfsMsg> {
        let label = self.label?;
        let phase = local_round / self.cfg.phase_rounds;
        if u64::from(label.dist) != phase || phase >= self.cfg.d_bound as u64 {
            return None;
        }
        let within = local_round % self.cfg.phase_rounds;
        self.decay.should_transmit(within, rng).then_some(BfsMsg {
            id: self.my_id,
            dist: label.dist,
        })
    }

    /// Earliest future local round at which [`BfsBuild::poll`] may act
    /// again (see `radio_net::engine::Node::next_activity`). A node
    /// only ever transmits during the one phase equal to its distance
    /// label: unlabelled → silent until a reception; phase still ahead
    /// → parked until that phase starts; phase passed (or out of
    /// `d_bound`) → silent forever. Labels are permanent (the first
    /// announcement wins), so only the reception that labels the node
    /// changes the answer; it reads the label and the round alone, so
    /// it is as honest after `deliver` as after `poll`.
    #[must_use]
    pub fn next_activity(&self, local_round: u64) -> u64 {
        let Some(label) = self.label else {
            return u64::MAX;
        };
        let dist = u64::from(label.dist);
        if dist >= self.cfg.d_bound as u64 {
            return u64::MAX;
        }
        let phase = local_round / self.cfg.phase_rounds;
        if phase < dist {
            return dist * self.cfg.phase_rounds;
        }
        if phase == dist {
            return local_round + 1;
        }
        u64::MAX
    }

    /// Handles a received announcement; the first one labels the node.
    pub fn deliver(&mut self, _local_round: u64, msg: &BfsMsg) {
        if self.label.is_none() {
            self.label = Some(BfsLabel {
                dist: msg.dist + 1,
                parent: Some(msg.id),
            });
        }
    }
}

/// Standalone adapter running [`BfsBuild`] directly on a
/// [`radio_net::Engine`], for tests, examples and micro-benchmarks of
/// the BFS stage in isolation.
#[derive(Debug)]
pub struct BfsNode {
    bfs: BfsBuild,
    rng: rand::rngs::SmallRng,
}

impl BfsNode {
    /// Creates the adapter (see [`BfsBuild::new`]).
    #[must_use]
    pub fn new(cfg: BfsConfig, my_id: u64, is_root: bool, rng: rand::rngs::SmallRng) -> Self {
        BfsNode {
            bfs: BfsBuild::new(cfg, my_id, is_root),
            rng,
        }
    }

    /// The node's label, once assigned.
    #[must_use]
    pub fn label(&self) -> Option<BfsLabel> {
        self.bfs.label()
    }
}

impl radio_net::engine::Node for BfsNode {
    type Msg = BfsMsg;
    fn poll(&mut self, round: u64) -> Option<BfsMsg> {
        self.bfs.poll(round, &mut self.rng)
    }
    fn receive(&mut self, round: u64, msg: &BfsMsg) {
        self.bfs.deliver(round, msg);
    }
    fn is_done(&self) -> bool {
        self.bfs.label().is_some()
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

    /// Builds the tree and checks every label against true BFS distances.
    fn check_bfs(topology: &Topology, root: usize, seed: u64) {
        let g = topology.build(seed).unwrap();
        let n = g.len();
        let delta = g.max_degree();
        let d = g.diameter().unwrap().max(1);
        let cfg = BfsConfig {
            phase_rounds: (3 * timing::log_n(n) * timing::epoch_len(delta)) as u64,
            d_bound: d,
            delta_bound: delta,
        };
        let truth = g.bfs_distances(NodeId::new(root));
        let nodes: Vec<BfsNode> = (0..n)
            .map(|i| BfsNode::new(cfg, i as u64, i == root, rng::stream(seed, i as u64)))
            .collect();
        let mut e = Engine::new(g, nodes, [NodeId::new(root)]).unwrap();
        e.run(cfg.total_rounds());
        let labels: Vec<Option<BfsLabel>> = e.nodes().iter().map(BfsNode::label).collect();
        for i in 0..n {
            let label = labels[i].unwrap_or_else(|| panic!("node {i} unlabeled (seed {seed})"));
            assert_eq!(
                label.dist as usize,
                truth[i].unwrap(),
                "node {i} wrong distance (seed {seed})"
            );
            if i == root {
                assert_eq!(label.parent, None);
            } else {
                let p = label.parent.unwrap() as usize;
                assert_eq!(
                    truth[p].unwrap() + 1,
                    truth[i].unwrap(),
                    "node {i}'s parent {p} not one ring closer"
                );
                assert!(
                    e.graph().has_edge(NodeId::new(i), NodeId::new(p)),
                    "node {i}'s parent {p} not adjacent"
                );
            }
        }
    }

    #[test]
    fn bfs_correct_on_path() {
        for seed in 0..4 {
            check_bfs(&Topology::Path { n: 24 }, 0, seed);
            check_bfs(&Topology::Path { n: 24 }, 11, seed);
        }
    }

    #[test]
    fn bfs_correct_on_grid_and_star() {
        for seed in 0..4 {
            check_bfs(&Topology::Grid2d { rows: 5, cols: 6 }, 0, seed);
            check_bfs(&Topology::Star { n: 30 }, 3, seed);
        }
    }

    #[test]
    fn bfs_correct_on_random_graphs() {
        for seed in 0..4 {
            check_bfs(&Topology::Gnp { n: 40, p: 0.12 }, 0, seed);
            check_bfs(&Topology::RandomTree { n: 40 }, 7, seed);
            check_bfs(
                &Topology::UnitDisk {
                    n: 40,
                    radius: 0.35,
                },
                1,
                seed,
            );
        }
    }

    #[test]
    fn bfs_on_clique_labels_everyone_distance_one() {
        check_bfs(&Topology::Complete { n: 16 }, 4, 0);
    }

    #[test]
    fn root_never_relabels() {
        let cfg = BfsConfig {
            phase_rounds: 8,
            d_bound: 3,
            delta_bound: 4,
        };
        let mut root = BfsBuild::new(cfg, 0, true);
        root.deliver(0, &BfsMsg { id: 9, dist: 2 });
        assert_eq!(
            root.label(),
            Some(BfsLabel {
                dist: 0,
                parent: None
            })
        );
    }

    #[test]
    fn first_announcement_wins() {
        let cfg = BfsConfig {
            phase_rounds: 8,
            d_bound: 3,
            delta_bound: 4,
        };
        let mut node = BfsBuild::new(cfg, 5, false);
        node.deliver(0, &BfsMsg { id: 1, dist: 0 });
        node.deliver(1, &BfsMsg { id: 2, dist: 1 });
        assert_eq!(
            node.label(),
            Some(BfsLabel {
                dist: 1,
                parent: Some(1)
            })
        );
    }

    #[test]
    fn total_rounds_formula() {
        let cfg = BfsConfig {
            phase_rounds: 10,
            d_bound: 7,
            delta_bound: 4,
        };
        assert_eq!(cfg.total_rounds(), 70);
    }
}
