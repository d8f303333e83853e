//! Immutable undirected graphs with the distance queries the protocols and
//! experiment harnesses need (BFS distances, diameter, degree statistics).

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
        let mut bfs = Bfs::new(self.len());
        bfs.run(self, source.0);
        bfs.dist
            .iter()
            .map(|&d| (d != UNREACHED).then_some(d as usize))
            .collect()
    }

    /// Eccentricity of `source` (max BFS distance), or `None` if some node
    /// is unreachable from it.
    #[must_use]
    pub fn eccentricity(&self, source: NodeId) -> Option<usize> {
        let mut bfs = Bfs::new(self.len());
        let ecc = bfs.run(self, source.0);
        bfs.reached_all().then_some(ecc as usize)
    }

    /// `true` if the graph is connected (a single node counts as connected).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.eccentricity(NodeId::new(0)).is_some()
    }

    /// Exact diameter, or `None` if disconnected.
    ///
    /// iFUB (Crescenzi, Grossi, Habib, Lanzi, Marino, TCS 2013): a
    /// 4-sweep picks a central node `u` and a lower bound `lb` (the
    /// largest eccentricity seen), then the BFS levels of `u` are
    /// evaluated from the farthest inward while `lb < 2i`. Every pair of
    /// nodes left unevaluated lies within level `i` of `u`, so its
    /// distance is at most `2i ≤ lb` and `lb` is the diameter. Each level
    /// is evaluated 64 sources per bit-parallel BFS pass (MS-BFS: Then
    /// et al., PVLDB 2014), so a graph whose fringe holds most nodes
    /// (G(n,p) with a small diameter) costs `n / 64` passes, not `n`.
    ///
    /// Worst case `O(n · (n + m) / 64)`, but typically a handful of BFS
    /// passes: 8 on a 16×16 grid. Measured on a 2-vCPU host (release):
    /// 6–11 ms on a 20 000-node unit disk (all-sources BFS: 17 s),
    /// 1.0–1.4 s on a million-node one (2.6–3.9 s with one scalar BFS
    /// per fringe node), 3 ms on G(1024, 2 ln n / n) (scalar: 28 ms),
    /// 1.1 s on G(16 384, 2 ln n / n), whose fringe holds most nodes.
    #[must_use]
    pub fn diameter(&self) -> Option<usize> {
        let n = self.len();
        let mut bfs = Bfs::new(n);
        let (center, mut lb) = self.center(&mut bfs)?;
        let top = bfs.run(self, center);
        lb = lb.max(top);
        // The BFS queue lists the nodes by level; `starts[i]` is where
        // level i begins in it.
        let order = std::mem::take(&mut bfs.queue);
        let mut starts = Vec::with_capacity(top as usize + 2);
        for (at, &v) in order.iter().enumerate() {
            if bfs.dist[v as usize] as usize == starts.len() {
                starts.push(at);
            }
        }
        starts.push(n);
        drop(bfs);
        let mut multi = MultiBfs::new(n);
        'fringe: for i in (1..=top as usize).rev() {
            for chunk in order[starts[i]..starts[i + 1]].chunks(64) {
                if lb as usize >= 2 * i {
                    break 'fringe;
                }
                lb = lb.max(multi.run(self, chunk));
            }
        }
        Some(lb as usize)
    }

    /// The 4-sweep: a double sweep a = far(0), b = far(a), then another
    /// (a', b') from the center estimate r, the argmin over v of v's
    /// largest distance to a and b. Returns the argmin of the largest
    /// distance to all four sweep ends and the largest eccentricity seen
    /// (a lower bound on the diameter); `None` if disconnected. (The
    /// midpoint of the a→b path is no substitute: on a grid that path
    /// hugs the border and its midpoint is a corner.)
    fn center(&self, bfs: &mut Bfs) -> Option<(u32, u32)> {
        let mut reach = vec![0u32; self.len()];
        let mut center = 0;
        let mut lb = 0;
        for sweep in 0..2 {
            lb = lb.max(bfs.run(self, center));
            if sweep == 0 && !bfs.reached_all() {
                return None;
            }
            for _ in 0..2 {
                let end = bfs.farthest();
                lb = lb.max(bfs.run(self, end));
                for (r, &d) in reach.iter_mut().zip(&bfs.dist) {
                    *r = (*r).max(d);
                }
            }
            center = (0..self.len() as u32)
                .min_by_key(|&v| reach[v as usize])
                .unwrap_or(0);
        }
        Some((center, lb))
    }
}

/// Distance of a node a BFS has not reached.
const UNREACHED: u32 = u32::MAX;

/// The flat BFS kernel: one distance array and one queue, reused run
/// after run.
struct Bfs {
    dist: Vec<u32>,
    /// The nodes the last run reached, in visit order, hence by
    /// non-decreasing distance.
    queue: Vec<u32>,
}

impl Bfs {
    fn new(n: usize) -> Self {
        Bfs {
            dist: vec![UNREACHED; n],
            queue: Vec::with_capacity(n),
        }
    }

    /// BFS from `source`; returns the largest distance reached.
    fn run(&mut self, g: &Graph, source: u32) -> u32 {
        let Bfs { dist, queue } = self;
        dist.fill(UNREACHED);
        queue.clear();
        dist[source as usize] = 0;
        queue.push(source);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let du = dist[u as usize] + 1;
            for &w in g.neighbors(NodeId(u)) {
                if dist[w.index()] == UNREACHED {
                    dist[w.index()] = du;
                    queue.push(w.0);
                }
            }
        }
        self.dist[self.farthest() as usize]
    }

    /// `true` if the last run reached every node.
    fn reached_all(&self) -> bool {
        self.queue.len() == self.dist.len()
    }

    /// A node at the largest distance of the last run (its last visit).
    fn farthest(&self) -> u32 {
        *self.queue.last().expect("a run visits its source")
    }
}

/// A BFS from up to 64 sources at once, one bit per source in a `u64`
/// per node, driven by the frontier (only nodes some bit reached last
/// level push on).
struct MultiBfs {
    /// Per node, the sources that have reached it.
    seen: Vec<u64>,
    /// Per node, the sources that reached it last level (zero between runs).
    visit: Vec<u64>,
    /// Per node, the sources reaching it this level (zero between runs).
    next: Vec<u64>,
    frontier: Vec<u32>,
    next_frontier: Vec<u32>,
}

impl MultiBfs {
    fn new(n: usize) -> Self {
        MultiBfs {
            seen: vec![0; n],
            visit: vec![0; n],
            next: vec![0; n],
            frontier: Vec::new(),
            next_frontier: Vec::new(),
        }
    }

    /// BFS from the (at most 64, distinct) `sources` of a connected
    /// graph; returns their largest eccentricity: the levels run until
    /// no bit moves.
    fn run(&mut self, g: &Graph, sources: &[u32]) -> u32 {
        debug_assert!(sources.len() <= 64);
        let MultiBfs {
            seen,
            visit,
            next,
            frontier,
            next_frontier,
        } = self;
        seen.fill(0);
        frontier.clear();
        for (j, &s) in sources.iter().enumerate() {
            seen[s as usize] = 1 << j;
            visit[s as usize] = 1 << j;
            frontier.push(s);
        }
        let mut level = 0;
        loop {
            next_frontier.clear();
            for &v in frontier.iter() {
                let bits = std::mem::take(&mut visit[v as usize]);
                for &w in g.neighbors(NodeId(v)) {
                    let w = w.index();
                    let new = bits & !seen[w];
                    if new != 0 {
                        if next[w] == 0 {
                            next_frontier.push(w as u32);
                        }
                        next[w] |= new;
                        seen[w] |= new;
                    }
                }
            }
            if next_frontier.is_empty() {
                return level;
            }
            level += 1;
            std::mem::swap(visit, next);
            std::mem::swap(frontier, next_frontier);
        }
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

    /// On a grid the a→b sweep path hugs the border, so its midpoint is
    /// a corner; the 4-sweep's argmin center is one of the four middle
    /// nodes, and the sweeps have already met a corner-to-corner pair.
    #[test]
    fn grid_center_is_the_middle_not_a_corner() {
        let g = crate::topology::grid2d(16, 16).unwrap();
        let (center, lb) = g.center(&mut Bfs::new(g.len())).unwrap();
        let (row, col) = (center / 16, center % 16);
        assert!(
            (7..=8).contains(&row) && (7..=8).contains(&col),
            "center ({row}, {col})"
        );
        assert_eq!(lb, 30);
        assert_eq!(g.diameter(), Some(30));
    }

    /// Both graphs have D = 4 where the sweeps only find 3. Stopping the
    /// fringe walk once `lb > 2(i - 1)`, tested before level i is
    /// evaluated, returns 3: on `gnp(n=64,p=0.13)` seed 5 with a
    /// midpoint center, on `gnp(n=16,p=0.25)` seed 40 with this one.
    #[test]
    fn fringe_level_is_evaluated_before_the_stop_test() {
        for (n, p, seed) in [(64, 0.13, 5), (16, 0.25, 40)] {
            let g = crate::topology::gnp_connected(n, p, seed).unwrap();
            assert_eq!(g.diameter(), Some(4), "gnp(n={n},p={p}) seed {seed}");
        }
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
