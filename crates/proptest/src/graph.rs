//! Topology strategy: random edge lists with *structural* shrinking.
//!
//! This module goes beyond the upstream crate's API (it has no graph
//! strategies); it exists because the workspace's model-checking tests
//! generate random topologies, and a failing case over a 9-node,
//! 30-edge graph is unreadable. [`EdgeList`] shrinks the way a
//! topology counterexample should: first **delete-vertex** (drop a
//! vertex, its incident edges, and relabel the rest down), then
//! **delete-edge** — so a greedy shrink converges to a minimal
//! topology still exhibiting the failure, typically a single edge or
//! triangle.

use std::fmt::Debug;

use crate::collection::SizeRange;
use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A simple undirected graph as a vertex count plus an edge list
/// (endpoints `< n`, no self-loops; duplicates allowed and harmless).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeList {
    /// Number of vertices.
    pub n: usize,
    /// Undirected edges.
    pub edges: Vec<(usize, usize)>,
}

/// Strategy for [`EdgeList`]s with a vertex count drawn from `n` and an
/// independently drawn edge count up to `n·(n-1)/2`.
#[must_use]
pub fn edge_list(n: impl Into<SizeRange>) -> EdgeListStrategy {
    let size = n.into();
    assert!(size.min() >= 1, "graphs need at least one vertex");
    EdgeListStrategy { size }
}

/// See [`edge_list`].
#[derive(Clone, Copy, Debug)]
pub struct EdgeListStrategy {
    size: SizeRange,
}

impl Strategy for EdgeListStrategy {
    type Value = EdgeList;

    fn generate(&self, rng: &mut TestRng) -> EdgeList {
        let span = (self.size.max() - self.size.min()) as u64;
        let n = self.size.min() + rng.below(span.max(1)) as usize;
        let max_edges = n * n.saturating_sub(1) / 2;
        let m = rng.below(max_edges as u64 + 1) as usize;
        let edges = (0..m)
            .map(|_| {
                let u = rng.below(n as u64) as usize;
                // Second endpoint drawn from the other n-1 vertices, so
                // self-loops never occur by construction.
                let v = (u + 1 + rng.below(n as u64 - 1) as usize) % n;
                (u.min(v), u.max(v))
            })
            .collect();
        EdgeList { n, edges }
    }

    fn shrink(&self, value: &EdgeList) -> Vec<EdgeList> {
        let mut out = Vec::new();
        // Delete-vertex: most aggressive — removes a vertex, every
        // incident edge, and relabels higher vertices down by one so
        // the result is again a compact 0..n-1 graph.
        if value.n > self.size.min() {
            for victim in 0..value.n {
                let edges = value
                    .edges
                    .iter()
                    .filter(|&&(u, v)| u != victim && v != victim)
                    .map(|&(u, v)| {
                        let relabel = |w: usize| if w > victim { w - 1 } else { w };
                        (relabel(u), relabel(v))
                    })
                    .collect();
                out.push(EdgeList {
                    n: value.n - 1,
                    edges,
                });
            }
        }
        // Delete-edge: same vertex set, one edge fewer.
        for i in 0..value.edges.len() {
            let mut edges = value.edges.clone();
            edges.remove(i);
            out.push(EdgeList { n: value.n, edges });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_graphs_are_well_formed() {
        let s = edge_list(3..10);
        let mut rng = TestRng::for_test("wellformed");
        for _ in 0..200 {
            let g = s.generate(&mut rng);
            assert!((3..10).contains(&g.n));
            for &(u, v) in &g.edges {
                assert!(u < g.n && v < g.n, "endpoint out of range");
                assert_ne!(u, v, "self-loop generated");
                assert!(u <= v, "edges are normalized");
            }
        }
    }

    #[test]
    fn delete_vertex_relabels_compactly() {
        let s = edge_list(1..10);
        let g = EdgeList {
            n: 4,
            edges: vec![(0, 1), (1, 2), (2, 3)],
        };
        let cands = s.shrink(&g);
        // First 4 candidates delete each vertex in turn.
        assert_eq!(
            cands[1],
            EdgeList {
                n: 3,
                edges: vec![(1, 2)]
            }
        ); // drop v1
        assert_eq!(
            cands[0],
            EdgeList {
                n: 3,
                edges: vec![(0, 1), (1, 2)]
            }
        ); // drop v0: edges (1,2),(2,3) relabel down
           // Then 3 candidates delete each edge.
        assert_eq!(cands.len(), 4 + 3);
        assert_eq!(
            cands[4],
            EdgeList {
                n: 4,
                edges: vec![(1, 2), (2, 3)]
            }
        );
    }

    #[test]
    fn shrink_respects_minimum_vertex_count() {
        let s = edge_list(3..10);
        let g = EdgeList {
            n: 3,
            edges: vec![(0, 1)],
        };
        // No vertex deletions at the floor; only the edge deletion.
        assert_eq!(
            s.shrink(&g),
            vec![EdgeList {
                n: 3,
                edges: vec![]
            }]
        );
    }

    #[test]
    fn greedy_shrink_reaches_a_minimal_graph() {
        // Property: "no graph contains an edge touching vertex 0".
        // A greedy loop over shrink candidates must land on the minimal
        // counterexample: two vertices, one edge (0, 1).
        let s = edge_list(2..12);
        let fails = |g: &EdgeList| g.edges.iter().any(|&(u, v)| u == 0 || v == 0);
        let mut cur = EdgeList {
            n: 9,
            edges: vec![(0, 3), (1, 2), (4, 5), (0, 7), (2, 6), (3, 8)],
        };
        assert!(fails(&cur));
        while let Some(simpler) = s.shrink(&cur).into_iter().find(|c| fails(c)) {
            cur = simpler;
        }
        assert_eq!(cur.n, 2);
        assert_eq!(cur.edges, vec![(0, 1)]);
    }
}
