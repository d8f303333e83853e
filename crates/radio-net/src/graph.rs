//! Immutable undirected graphs with the distance queries the protocols and
//! experiment harnesses need (BFS distances, diameter, degree statistics).

use std::collections::VecDeque;
use std::fmt;

use crate::error::Error;

/// Identifier of a node in a [`Graph`]; a dense index in `0..n`.
///
/// A newtype (rather than a bare `usize`) so that node identities cannot be
/// confused with round numbers, packet ids or other counters.
///
/// ```
/// use radio_net::graph::NodeId;
/// let v = NodeId::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(v.to_string(), "v3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32` (graphs that large are far
    /// beyond what the simulator targets).
    #[must_use]
    pub fn new(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32::MAX"))
    }

    /// Returns the dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> usize {
        id.index()
    }
}

/// An immutable, simple, undirected graph in compressed-sparse-row (CSR)
/// form: all adjacency lists live in one flat `targets` array, with
/// `offsets[v]..offsets[v + 1]` delimiting the neighbors of `v`.
///
/// Radio-network protocols never mutate the topology, so `Graph` is built
/// once (via [`Graph::from_edges`] or the [`crate::topology`] generators)
/// and then only queried. The flat layout keeps [`Graph::neighbors`] —
/// the simulator's hottest query — a single bounds computation plus a
/// contiguous slice, with no per-node heap indirection.
///
/// ```
/// use radio_net::graph::{Graph, NodeId};
///
/// # fn main() -> Result<(), radio_net::error::Error> {
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)])?;
/// assert_eq!(g.len(), 4);
/// assert_eq!(g.degree(NodeId::new(1)), 2);
/// assert_eq!(g.diameter(), Some(3));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    /// CSR row offsets, length `n + 1`; neighbors of `v` occupy
    /// `targets[offsets[v] as usize..offsets[v + 1] as usize]`.
    offsets: Vec<u32>,
    /// Concatenated adjacency lists, each sorted ascending.
    targets: Vec<NodeId>,
    edges: usize,
}

impl Graph {
    /// Builds a graph with `n` nodes from an edge list.
    ///
    /// Duplicate edges are collapsed; `(u, v)` and `(v, u)` denote the same
    /// edge.
    ///
    /// # Errors
    ///
    /// * [`Error::EmptyGraph`] if `n == 0`.
    /// * [`Error::NodeOutOfRange`] if an endpoint is `>= n`.
    /// * [`Error::SelfLoop`] if an edge `(v, v)` is supplied.
    pub fn from_edges(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Self, Error> {
        if n == 0 {
            return Err(Error::EmptyGraph);
        }
        // Collect both directions of every edge, then sort + dedup once
        // globally: after sorting by (source, target) the pairs ARE the
        // CSR `targets` array, already in ascending order per node.
        let mut directed: Vec<(u32, u32)> = Vec::new();
        for (u, v) in edges {
            if u >= n {
                return Err(Error::NodeOutOfRange { node: u, n });
            }
            if v >= n {
                return Err(Error::NodeOutOfRange { node: v, n });
            }
            if u == v {
                return Err(Error::SelfLoop { node: u });
            }
            let (u, v) = (NodeId::new(u).0, NodeId::new(v).0);
            directed.push((u, v));
            directed.push((v, u));
        }
        directed.sort_unstable();
        directed.dedup();
        u32::try_from(directed.len()).expect("directed edge count exceeds u32::MAX");
        let mut offsets = vec![0u32; n + 1];
        for &(u, _) in &directed {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let targets: Vec<NodeId> = directed.into_iter().map(|(_, v)| NodeId(v)).collect();
        let edges = targets.len() / 2;
        Ok(Graph {
            offsets,
            targets,
            edges,
        })
    }

    /// Wraps adjacency rows that are already in CSR form: `offsets` has
    /// length `n + 1` with `n >= 1`, and `targets[offsets[v]..offsets[v + 1]]`
    /// are the neighbors of `v`. The caller guarantees what
    /// [`Graph::from_edges`] would establish — every row strictly ascending
    /// (hence duplicate-free), no self-loops, and `u ∈ row(v)` iff
    /// `v ∈ row(u)`; debug builds check all three.
    pub(crate) fn from_csr(offsets: Vec<u32>, targets: Vec<NodeId>) -> Self {
        let g = Graph {
            edges: targets.len() / 2,
            offsets,
            targets,
        };
        debug_assert!(!g.is_empty(), "a graph has at least one node");
        debug_assert_eq!(g.offsets[g.len()] as usize, g.targets.len());
        debug_assert!(g.node_ids().all(|v| {
            let row = g.neighbors(v);
            row.windows(2).all(|w| w[0] < w[1]) && row.iter().all(|&u| u != v && g.has_edge(u, v))
        }));
        g
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` if the graph has no nodes. Always `false` for constructed
    /// graphs (construction rejects `n == 0`), provided for API
    /// completeness alongside [`Graph::len`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of (undirected) edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Neighbors of `v` in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of this graph.
    #[must_use]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a node of this graph.
    #[must_use]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Maximum degree Δ over all nodes (0 for a single isolated node).
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// `true` if `u` and `v` are adjacent.
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterator over all node ids `v0..v(n-1)`.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId::new)
    }

    /// BFS distances from `source`; `None` for unreachable nodes.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a node of this graph.
    #[must_use]
    pub fn bfs_distances(&self, source: NodeId) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.len()];
        dist[source.index()] = Some(0);
        let mut queue = VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()].expect("queued nodes have distances");
            for &w in self.neighbors(u) {
                if dist[w.index()].is_none() {
                    dist[w.index()] = Some(du + 1);
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Eccentricity of `source` (max BFS distance), or `None` if some node
    /// is unreachable from it.
    #[must_use]
    pub fn eccentricity(&self, source: NodeId) -> Option<usize> {
        self.bfs_distances(source)
            .into_iter()
            .try_fold(0, |acc, d| d.map(|d| acc.max(d)))
    }

    /// `true` if the graph is connected (a single node counts as connected).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.eccentricity(NodeId::new(0)).is_some()
    }

    /// Exact diameter via an all-sources BFS, or `None` if disconnected.
    ///
    /// Runs in `O(n · (n + m))`; intended for experiment setup, not for the
    /// simulation hot path.
    #[must_use]
    pub fn diameter(&self) -> Option<usize> {
        self.node_ids()
            .map(|v| self.eccentricity(v))
            .try_fold(0, |acc, e| e.map(|e| acc.max(e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Graph {
        // 0-1, 1-2, 2-0 triangle with tail 2-3-4.
        Graph::from_edges(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]).unwrap()
    }

    #[test]
    fn from_edges_rejects_empty() {
        assert_eq!(Graph::from_edges(0, []), Err(Error::EmptyGraph));
    }

    #[test]
    fn from_edges_rejects_out_of_range() {
        assert_eq!(
            Graph::from_edges(2, [(0, 2)]),
            Err(Error::NodeOutOfRange { node: 2, n: 2 })
        );
    }

    #[test]
    fn from_edges_rejects_self_loop() {
        assert_eq!(
            Graph::from_edges(2, [(1, 1)]),
            Err(Error::SelfLoop { node: 1 })
        );
    }

    #[test]
    fn duplicate_edges_are_collapsed() {
        let g = Graph::from_edges(2, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(NodeId::new(0)), 1);
    }

    #[test]
    fn neighbors_are_sorted_and_symmetric() {
        let g = triangle_plus_tail();
        assert_eq!(
            g.neighbors(NodeId::new(2)),
            &[NodeId::new(0), NodeId::new(1), NodeId::new(3)]
        );
        for u in g.node_ids() {
            for &v in g.neighbors(u) {
                assert!(g.has_edge(v, u));
            }
        }
    }

    #[test]
    fn bfs_distances_on_tail() {
        let g = triangle_plus_tail();
        let d = g.bfs_distances(NodeId::new(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn diameter_and_connectivity() {
        let g = triangle_plus_tail();
        assert!(g.is_connected());
        assert_eq!(g.diameter(), Some(3));

        let disconnected = Graph::from_edges(3, [(0, 1)]).unwrap();
        assert!(!disconnected.is_connected());
        assert_eq!(disconnected.diameter(), None);
    }

    #[test]
    fn single_node_graph() {
        let g = Graph::from_edges(1, []).unwrap();
        assert!(g.is_connected());
        assert_eq!(g.diameter(), Some(0));
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn csr_is_canonical_in_edge_order_and_direction() {
        // The CSR arrays (and hence `==`) must not depend on the order or
        // orientation in which edges were supplied.
        let a = Graph::from_edges(4, [(2, 3), (0, 1), (1, 2)]).unwrap();
        let b = Graph::from_edges(4, [(1, 0), (1, 2), (3, 2), (0, 1)]).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.edge_count(), 3);
    }

    #[test]
    fn isolated_nodes_have_empty_neighbor_slices() {
        let g = Graph::from_edges(4, [(1, 2)]).unwrap();
        assert!(g.neighbors(NodeId::new(0)).is_empty());
        assert!(g.neighbors(NodeId::new(3)).is_empty());
        assert_eq!(g.degree(NodeId::new(0)), 0);
        assert_eq!(g.max_degree(), 1);
    }

    #[test]
    fn node_id_display_and_conversion() {
        let v = NodeId::new(42);
        assert_eq!(v.to_string(), "v42");
        assert_eq!(usize::from(v), 42);
    }
}
