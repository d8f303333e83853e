//! `Graph::diameter` (iFUB over bit-parallel fringe passes) against the
//! all-pairs BFS it replaced, kept here as the oracle: on every
//! `Topology` family, on random `from_edges` graphs (dense, sparse and
//! disconnected), and on n = 1 and n = 2. The BFS kernel's
//! `bfs_distances`, `eccentricity` and `is_connected` are pinned to the
//! oracle's single-source BFS on the same graphs.

use std::collections::VecDeque;

use proptest::prelude::*;
use radio_net::graph::{Graph, NodeId};
use radio_net::topology::Topology;

/// Single-source BFS distances, written independently of the library's
/// kernel.
fn oracle_distances(g: &Graph, source: NodeId) -> Vec<Option<usize>> {
    let mut dist = vec![None; g.len()];
    dist[source.index()] = Some(0);
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued nodes have distances");
        for &w in g.neighbors(u) {
            if dist[w.index()].is_none() {
                dist[w.index()] = Some(du + 1);
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Eccentricity of `source`, `None` if some node is unreachable.
fn oracle_eccentricity(g: &Graph, source: NodeId) -> Option<usize> {
    oracle_distances(g, source)
        .into_iter()
        .try_fold(0, |acc, d| d.map(|d| acc.max(d)))
}

/// The all-sources BFS: `O(n · (n + m))`.
fn oracle_diameter(g: &Graph) -> Option<usize> {
    g.node_ids()
        .map(|v| oracle_eccentricity(g, v))
        .try_fold(0, |acc, e| e.map(|e| acc.max(e)))
}

/// Checks every distance query of `g` against the oracle.
fn agrees(g: &Graph) -> Result<(), String> {
    prop_assert_eq!(g.diameter(), oracle_diameter(g));
    prop_assert_eq!(g.is_connected(), oracle_diameter(g).is_some());
    for v in [0, g.len() / 2, g.len() - 1].map(NodeId::new) {
        prop_assert_eq!(g.bfs_distances(v), oracle_distances(g, v));
        prop_assert_eq!(g.eccentricity(v), oracle_eccentricity(g, v));
    }
    Ok(())
}

/// One member of every `Topology` family, sized from `a` and `b` and
/// kept to parameters its generator accepts (the random families are
/// dense enough to connect within their retry budget).
fn family(which: usize, a: usize, b: usize) -> Topology {
    match which {
        0 => Topology::Path { n: 1 + a },
        1 => Topology::Cycle { n: 3 + a },
        2 => Topology::Star { n: 1 + a },
        3 => Topology::Complete { n: 1 + a % 20 },
        4 => Topology::Grid2d {
            rows: 1 + a % 16,
            cols: 1 + b % 16,
        },
        5 => Topology::Torus {
            rows: 3 + a % 10,
            cols: 3 + b % 10,
        },
        6 => Topology::Hypercube { d: 1 + a % 8 },
        7 => Topology::BinaryTree { n: 1 + a },
        8 => Topology::Dumbbell {
            clique: 2 + a % 6,
            bridge: b % 12,
        },
        9 => Topology::Lollipop {
            clique: 2 + a % 6,
            tail: b % 12,
        },
        10 => Topology::Caterpillar {
            spine: 1 + a % 12,
            legs: b % 4,
        },
        11 => {
            let n = 12 + a;
            #[allow(clippy::cast_precision_loss)]
            let p = (1.2 + (b % 4) as f64 * 0.6) * (n as f64).ln() / n as f64;
            Topology::Gnp { n, p: p.min(1.0) }
        }
        12 => Topology::RandomTree { n: 1 + a },
        13 => {
            let n = 16 + a;
            #[allow(clippy::cast_precision_loss)]
            let radius = 2.0 * ((n as f64).ln() / n as f64).sqrt() + (b % 4) as f64 * 0.05;
            Topology::UnitDisk { n, radius }
        }
        _ => {
            let n = 8 + 2 * (a / 2);
            Topology::RandomRegular { n, d: 3 + b % 3 }
        }
    }
}

/// Sparse graphs with long shortest paths: node `v` links back to one
/// of its `reach` predecessors, then `chords` extra edges; a `gap`
/// node never links back, so some cases are disconnected.
fn sparse(n: usize, links: &[usize], chords: &[(usize, usize)], gap: usize) -> Graph {
    let reach = 1 + links.first().copied().unwrap_or(0) % 4;
    let back = (1..n)
        .filter(|&v| v != gap)
        .map(|v| (v - 1 - links[v % links.len()] % reach.min(v), v));
    let extra = chords
        .iter()
        .map(|&(u, v)| (u % n, v % n))
        .filter(|&(u, v)| u != v && u != gap && v != gap);
    Graph::from_edges(n, back.chain(extra).collect::<Vec<_>>()).expect("valid edges")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_topology_family_matches_the_oracle(
        which in 0usize..15,
        a in 0usize..60,
        b in 0usize..60,
        seed in 0u64..1000,
    ) {
        let t = family(which, a, b);
        let g = t.build(seed).unwrap_or_else(|e| panic!("{t} (seed {seed}): {e}"));
        agrees(&g).map_err(|m| format!("{t} (seed {seed}): {m}"))?;
    }

    #[test]
    fn random_edge_lists_match_the_oracle(topo in proptest::graph::edge_list(1..24)) {
        let g = Graph::from_edges(topo.n, topo.edges.clone()).expect("valid edges");
        agrees(&g)?;
    }

    #[test]
    fn sparse_graphs_match_the_oracle(
        n in 2usize..200,
        links in proptest::collection::vec(0usize..1000, 1..16),
        chords in proptest::collection::vec((0usize..1000, 0usize..1000), 0..6),
        gap in 0usize..4000,
    ) {
        agrees(&sparse(n, &links, &chords, gap))?;
    }
}

#[test]
fn one_and_two_nodes() {
    let single = Graph::from_edges(1, []).unwrap();
    assert_eq!(single.diameter(), Some(0));
    let pair = Graph::from_edges(2, [(0, 1)]).unwrap();
    assert_eq!(pair.diameter(), Some(1));
    let apart = Graph::from_edges(2, []).unwrap();
    assert_eq!(apart.diameter(), None);
    for g in [single, pair, apart] {
        agrees(&g).unwrap();
    }
}

/// Sparse G(n,p) is where the sweeps most often stop short of D (about
/// 1 graph in 60 at n = 16–24 here), so the fringe walk's stopping rule
/// decides the answer.
#[test]
fn sparse_gnp_sweeps_match_the_oracle() {
    for n in [16, 20, 24, 32] {
        for p in [0.2, 0.25, 0.3] {
            let t = Topology::Gnp { n, p };
            for seed in 0..120 {
                let g = t.build(seed).unwrap();
                agrees(&g).unwrap_or_else(|m| panic!("{t} (seed {seed}): {m}"));
            }
        }
    }
}

/// Graphs whose diameter is attained only past the first 64 nodes of a
/// fringe level the sweeps leave open, so every chunk of a wide level
/// must be evaluated.
#[test]
fn wide_fringe_levels_match_the_oracle() {
    for (t, seed) in [
        (Topology::Gnp { n: 300, p: 0.04 }, 21),
        (Topology::RandomRegular { n: 300, d: 3 }, 44),
    ] {
        let g = t.build(seed).unwrap();
        agrees(&g).unwrap_or_else(|m| panic!("{t} (seed {seed}): {m}"));
    }
}
