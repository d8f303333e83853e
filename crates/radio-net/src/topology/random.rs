//! Randomized topology families.
//!
//! All generators are deterministic functions of `(parameters, seed)`;
//! randomized families that can come out disconnected are resampled up to
//! [`MAX_ATTEMPTS`] times.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::error::Error;
use crate::graph::{Graph, NodeId};
use crate::rng::{self, salts};

/// Retry budget for connectivity-conditioned generators.
pub const MAX_ATTEMPTS: usize = 64;

fn invalid(reason: impl Into<String>) -> Error {
    Error::InvalidParameter {
        reason: reason.into(),
    }
}

/// Erdős–Rényi `G(n, p)`, resampled until connected.
///
/// # Errors
///
/// Rejects `n == 0` or `p ∉ [0, 1]`; returns
/// [`Error::DisconnectedTopology`] if no connected sample is found within
/// [`MAX_ATTEMPTS`] (choose `p ≳ ln n / n` to avoid this).
pub fn gnp_connected(n: usize, p: f64, seed: u64) -> Result<Graph, Error> {
    if n == 0 {
        return Err(invalid("gnp requires n >= 1"));
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(invalid("gnp requires p in [0, 1]"));
    }
    let mut rng = rng::stream(seed, salts::TOPOLOGY);
    for _ in 0..MAX_ATTEMPTS {
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                if rng.gen_bool(p) {
                    edges.push((i, j));
                }
            }
        }
        let g = Graph::from_edges(n, edges)?;
        if g.is_connected() {
            return Ok(g);
        }
    }
    Err(Error::DisconnectedTopology {
        attempts: MAX_ATTEMPTS,
    })
}

/// Uniformly random labelled tree on `n` nodes, sampled via a random
/// Prüfer sequence (exact uniform distribution over the `n^(n-2)` trees).
///
/// # Errors
///
/// Rejects `n == 0`.
pub fn random_tree(n: usize, seed: u64) -> Result<Graph, Error> {
    if n == 0 {
        return Err(invalid("random tree requires n >= 1"));
    }
    if n == 1 {
        return Graph::from_edges(1, []);
    }
    if n == 2 {
        return Graph::from_edges(2, [(0, 1)]);
    }
    let mut rng = rng::stream(seed, salts::TOPOLOGY);
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();

    // Decode: degree of v = 1 + multiplicity in the sequence.
    let mut degree = vec![1usize; n];
    for &v in &prufer {
        degree[v] += 1;
    }
    let mut edges = Vec::with_capacity(n - 1);
    // Min-leaf decoding with a scan pointer (O(n log n)-ish, fine here).
    let mut leaf_heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&v| degree[v] == 1)
        .map(std::cmp::Reverse)
        .collect();
    for &v in &prufer {
        let std::cmp::Reverse(leaf) = leaf_heap.pop().expect("a leaf always exists");
        edges.push((leaf, v));
        degree[v] -= 1;
        if degree[v] == 1 {
            leaf_heap.push(std::cmp::Reverse(v));
        }
    }
    let std::cmp::Reverse(a) = leaf_heap.pop().expect("two leaves remain");
    let std::cmp::Reverse(b) = leaf_heap.pop().expect("two leaves remain");
    edges.push((a, b));
    Graph::from_edges(n, edges)
}

/// Random unit-disk graph: `n` points uniform on the unit square, edges
/// between pairs at Euclidean distance ≤ `radius`; resampled until
/// connected. The standard abstraction of an ad-hoc wireless deployment.
///
/// Node ids follow space, not draw order: the first drawn point is
/// node 0, and the other points are numbered by the Z-order (Morton)
/// key of their coordinates, each quantized to 32 bits (ties keep draw
/// order). Nearby points thus get nearby ids, so a flood front touches
/// contiguous memory in the node array and the adjacency. Node 0 is
/// kept out of the sort because single-source workloads put their
/// source there: it stays a uniformly placed point instead of becoming
/// the corner of the square with the smallest key.
///
/// # Errors
///
/// Rejects `n == 0` or non-positive `radius`; returns
/// [`Error::DisconnectedTopology`] after [`MAX_ATTEMPTS`] failed samples
/// (choose `radius ≳ sqrt(ln n / n)`).
pub fn unit_disk(n: usize, radius: f64, seed: u64) -> Result<Graph, Error> {
    if n == 0 {
        return Err(invalid("unit disk requires n >= 1"));
    }
    if radius <= 0.0 || !radius.is_finite() {
        return Err(invalid("unit disk requires radius > 0"));
    }
    let mut rng = rng::stream(seed, salts::TOPOLOGY);
    for _ in 0..MAX_ATTEMPTS {
        let mut pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        pts[1..].sort_by_cached_key(|&(x, y)| morton_key(x, y));
        let g = unit_disk_graph(&pts, radius);
        if g.is_connected() {
            return Ok(g);
        }
    }
    Err(Error::DisconnectedTopology {
        attempts: MAX_ATTEMPTS,
    })
}

/// Z-order key of a point of the unit square: both coordinates
/// quantized to 32 bits (saturating), `x` on the even bits and `y` on
/// the odd ones.
fn morton_key(x: f64, y: f64) -> u64 {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let (qx, qy) = (
        u64::from((x * 4_294_967_296.0) as u32),
        u64::from((y * 4_294_967_296.0) as u32),
    );
    (0..32).fold(0, |key, b| {
        key | (qx >> b & 1) << (2 * b) | (qy >> b & 1) << (2 * b + 1)
    })
}

/// The unit-disk graph of `pts` at `radius`, node `i` at `pts[i]`,
/// built row by row straight into CSR form. A uniform bucket grid with
/// cell side ≥ `radius` puts every neighbor of a point in its own or an
/// adjacent cell, so each row scans only the 3×3 neighborhood —
/// `O(n · occupancy)` instead of the `O(n²)` all-pairs loop, which is
/// what makes million-node unit-disk graphs buildable. Rows come out
/// symmetric because `dx² + dy²` is bitwise the same with the two
/// points swapped.
pub(crate) fn unit_disk_graph(pts: &[(f64, f64)], radius: f64) -> Graph {
    let n = pts.len();
    let r2 = radius * radius;
    // Cell side = 1/cells ≥ radius keeps the 3×3 scan sufficient; the
    // √n cap bounds the grid to O(n) cells when the radius is tiny
    // relative to the point count.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let cells = {
        #[allow(clippy::cast_precision_loss)]
        let cap = (n as f64).sqrt() as usize + 1;
        ((1.0 / radius) as usize).clamp(1, cap)
    };
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let cell_of = |x: f64| ((x * cells as f64) as usize).min(cells - 1);
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); cells * cells];
    for (i, &(x, y)) in pts.iter().enumerate() {
        let idx = u32::try_from(i).expect("point index fits u32");
        buckets[cell_of(y) * cells + cell_of(x)].push(idx);
    }
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    let mut targets = Vec::new();
    for (i, &(x, y)) in pts.iter().enumerate() {
        let row = targets.len();
        let (cx, cy) = (cell_of(x), cell_of(y));
        for ny in cy.saturating_sub(1)..=(cy + 1).min(cells - 1) {
            for nx in cx.saturating_sub(1)..=(cx + 1).min(cells - 1) {
                for &j in &buckets[ny * cells + nx] {
                    let j = j as usize;
                    let dx = x - pts[j].0;
                    let dy = y - pts[j].1;
                    if j != i && dx * dx + dy * dy <= r2 {
                        targets.push(NodeId::new(j));
                    }
                }
            }
        }
        targets[row..].sort_unstable();
        offsets.push(u32::try_from(targets.len()).expect("directed edge count exceeds u32::MAX"));
    }
    Graph::from_csr(offsets, targets)
}

/// Random `d`-regular graph via the configuration model with random
/// edge-swap repair of loops and multi-edges (the standard practical
/// sampler; approximately uniform), resampled until connected. Gives
/// precise control of Δ for the degree-scaling experiments.
///
/// # Errors
///
/// Rejects `n·d` odd, `d ≥ n`, or `d == 0` with `n > 1`; returns
/// [`Error::DisconnectedTopology`] if no valid sample is found.
pub fn random_regular(n: usize, d: usize, seed: u64) -> Result<Graph, Error> {
    if n == 0 {
        return Err(invalid("random regular requires n >= 1"));
    }
    if n == 1 && d == 0 {
        return Graph::from_edges(1, []);
    }
    if d == 0 {
        return Err(invalid("random regular with n > 1 requires d >= 1"));
    }
    if d >= n {
        return Err(invalid("random regular requires d < n"));
    }
    if !(n * d).is_multiple_of(2) {
        return Err(invalid("random regular requires n*d even"));
    }
    let mut rng = rng::stream(seed, salts::TOPOLOGY);
    for _ in 0..MAX_ATTEMPTS {
        // Stubs: node i appears d times; pair them up after a shuffle.
        let mut stubs: Vec<usize> = (0..n).flat_map(|i| std::iter::repeat_n(i, d)).collect();
        stubs.shuffle(&mut rng);
        let mut edges: Vec<(usize, usize)> = stubs.chunks(2).map(|p| (p[0], p[1])).collect();

        if repair_multigraph(&mut edges, &mut rng) {
            let g = Graph::from_edges(n, edges)?;
            if g.is_connected() {
                return Ok(g);
            }
        }
    }
    Err(Error::DisconnectedTopology {
        attempts: MAX_ATTEMPTS,
    })
}

/// Removes loops and duplicate edges from a pairing by random edge swaps:
/// a bad edge `(a, b)` and a random partner `(c, d)` are rewired to
/// `(a, d), (c, b)`. Returns `true` once the edge list is simple.
fn repair_multigraph(edges: &mut [(usize, usize)], rng: &mut impl Rng) -> bool {
    const MAX_PASSES: usize = 500;
    let key = |u: usize, v: usize| (u.min(v), u.max(v));
    for _ in 0..MAX_PASSES {
        let mut seen = std::collections::HashSet::with_capacity(edges.len());
        let mut bad: Vec<usize> = Vec::new();
        for (i, &(u, v)) in edges.iter().enumerate() {
            if u == v || !seen.insert(key(u, v)) {
                bad.push(i);
            }
        }
        if bad.is_empty() {
            return true;
        }
        for i in bad {
            let j = rng.gen_range(0..edges.len());
            if i == j {
                continue;
            }
            let (a, b) = edges[i];
            let (c, d) = edges[j];
            edges[i] = (a, d);
            edges[j] = (c, b);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gnp_is_connected_and_deterministic() {
        let g1 = gnp_connected(32, 0.3, 5).unwrap();
        let g2 = gnp_connected(32, 0.3, 5).unwrap();
        assert_eq!(g1, g2);
        assert!(g1.is_connected());
        assert!(gnp_connected(32, 0.3, 6).unwrap() != g1);
    }

    #[test]
    fn gnp_rejects_bad_parameters() {
        assert!(gnp_connected(0, 0.5, 1).is_err());
        assert!(gnp_connected(4, 1.5, 1).is_err());
        assert!(gnp_connected(4, -0.1, 1).is_err());
    }

    #[test]
    fn gnp_sparse_fails_connectivity() {
        // p = 0 on n >= 2 can never be connected.
        let err = gnp_connected(4, 0.0, 1).unwrap_err();
        assert!(matches!(err, Error::DisconnectedTopology { .. }));
    }

    #[test]
    fn random_tree_is_a_tree() {
        for seed in 0..10 {
            let n = 40;
            let g = random_tree(n, seed).unwrap();
            assert_eq!(g.edge_count(), n - 1);
            assert!(g.is_connected());
        }
    }

    #[test]
    fn random_tree_small_cases() {
        assert_eq!(random_tree(1, 0).unwrap().len(), 1);
        let g2 = random_tree(2, 0).unwrap();
        assert_eq!(g2.edge_count(), 1);
        let g3 = random_tree(3, 0).unwrap();
        assert_eq!(g3.edge_count(), 2);
        assert!(g3.is_connected());
    }

    #[test]
    fn unit_disk_connected() {
        let g = unit_disk(48, 0.35, 3).unwrap();
        assert!(g.is_connected());
        assert_eq!(g, unit_disk(48, 0.35, 3).unwrap());
    }

    #[test]
    fn unit_disk_grid_matches_all_pairs_scan() {
        let mut rng = rng::stream(9, salts::TOPOLOGY);
        for &(n, radius) in &[
            (40usize, 0.35),
            (64, 0.12),
            (33, 1.5),
            (7, 0.02),
            (2_000, 0.04),
        ] {
            let pts: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
                .collect();
            let r2 = radius * radius;
            let mut naive = Vec::new();
            for i in 0..n {
                for j in i + 1..n {
                    let dx = pts[i].0 - pts[j].0;
                    let dy = pts[i].1 - pts[j].1;
                    if dx * dx + dy * dy <= r2 {
                        naive.push((i, j));
                    }
                }
            }
            assert_eq!(
                unit_disk_graph(&pts, radius),
                Graph::from_edges(n, naive).unwrap(),
                "n={n} radius={radius}"
            );
        }
    }

    #[test]
    fn unit_disk_ids_follow_z_order_after_the_first_point() {
        assert_eq!(morton_key(0.5, 0.0), 1 << 62);
        assert_eq!(morton_key(0.75, 0.5), 0b1101 << 60);
        let (n, radius, seed) = (300, 0.12, 11);
        // Redraw the attempts of `unit_disk`, keeping the first connected
        // one in draw order.
        let mut rng = rng::stream(seed, salts::TOPOLOGY);
        let (pts, drawn) = loop {
            let pts: Vec<(f64, f64)> = (0..n)
                .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
                .collect();
            let g = unit_disk_graph(&pts, radius);
            if g.is_connected() {
                break (pts, g);
            }
        };
        // Node 0 is draw index 0; ids 1.. follow non-decreasing keys.
        let mut order: Vec<usize> = (1..n).collect();
        order.sort_by_key(|&i| morton_key(pts[i].0, pts[i].1));
        let mut id_of = vec![0; n];
        for (id, &i) in order.iter().enumerate() {
            id_of[i] = id + 1;
        }
        let id_of = &id_of;
        let relabelled = drawn.node_ids().flat_map(|u| {
            let iu = id_of[u.index()];
            drawn
                .neighbors(u)
                .iter()
                .map(move |v| (iu, id_of[v.index()]))
        });
        let g = unit_disk(n, radius, seed).unwrap();
        assert_eq!(g, Graph::from_edges(n, relabelled).unwrap());
        assert_ne!(g, drawn);
    }

    #[test]
    fn unit_disk_neighbors_have_nearby_ids() {
        let n = 20_000;
        #[allow(clippy::cast_precision_loss)]
        let radius = (20.0 / (std::f64::consts::PI * n as f64)).sqrt();
        let g = unit_disk(n, radius, 3).unwrap();
        // Sums both directions of every edge.
        let gap: usize = g
            .node_ids()
            .flat_map(|u| {
                g.neighbors(u)
                    .iter()
                    .map(move |v| u.index().abs_diff(v.index()))
            })
            .sum();
        #[allow(clippy::cast_precision_loss)]
        let mean = gap as f64 / (2 * g.edge_count()) as f64;
        assert!(mean < n as f64 / 50.0, "mean |u - v| over edges is {mean}");
    }

    #[test]
    fn unit_disk_rejects_bad_radius() {
        assert!(unit_disk(4, 0.0, 1).is_err());
        assert!(unit_disk(4, f64::NAN, 1).is_err());
    }

    #[test]
    fn random_regular_has_exact_degree() {
        for &(n, d) in &[(20, 3), (24, 4), (16, 5)] {
            let g = random_regular(n, d, 7).unwrap();
            assert!(g.is_connected());
            for v in g.node_ids() {
                assert_eq!(g.degree(v), d, "node {v} in {n}-node {d}-regular");
            }
        }
    }

    #[test]
    fn random_regular_rejects_bad_parameters() {
        assert!(random_regular(5, 3, 1).is_err()); // odd n*d
        assert!(random_regular(4, 4, 1).is_err()); // d >= n
        assert!(random_regular(4, 0, 1).is_err());
        assert_eq!(random_regular(1, 0, 1).unwrap().len(), 1);
    }
}
