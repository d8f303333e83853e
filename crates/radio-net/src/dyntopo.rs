//! Dynamic topology: per-round churn, mobility, and partition/heal.
//!
//! Every run so far froze the graph at construction. The mobile model
//! (Czumaj–Davies, *Randomized Communication Without Network
//! Knowledge*) moves the links instead: the adjacency a round's
//! transmissions resolve against may differ from the last round's.
//! This module is that seam. A [`TopologyModel`] gets one hook per
//! round — *before* transmissions resolve — and may swap in a new
//! [`Graph`]; everything downstream of the swap (neighbor counting,
//! collision derivation, the jam hook's [`crate::faults::ChannelView`],
//! the [`crate::verify::ModelChecker`]'s re-derivation) sees the same
//! per-round snapshot, which is what keeps the online verification
//! stack sound under churn.
//!
//! The trait mirrors the zero-cost `const ENABLED` idiom of
//! [`crate::faults::FaultModel`] and [`crate::engine::CdModel`]: the
//! default [`StaticTopology`] has `ENABLED = false`, so the reshape
//! hook monomorphizes out of [`crate::engine::Engine::step`] entirely
//! and a static engine compiles to exactly the pre-churn word-parallel
//! hot loop (pinned by the golden round-count tables and the perf-gate
//! floors).
//!
//! Three dynamic models are provided:
//!
//! * [`EdgeChurn`] — seeded per-round edge flips: each up edge goes
//!   down with probability ρ, each down edge heals with probability
//!   `heal` (a two-state Markov chain per edge, the link-level
//!   analogue of the Gilbert–Elliott fault channel).
//! * [`Waypoint`] — unit-disk random-waypoint mobility: seeded points
//!   on the unit square move toward seeded destinations at a fixed
//!   speed per round; the adjacency is re-derived from the positions
//!   with the same bucket-grid neighbor search the static unit-disk
//!   generator uses.
//! * [`PartitionHeal`] — a scheduled bisection: edges crossing a
//!   seeded balanced cut vanish during `[split_at, heal_at)` windows
//!   (optionally periodic) and reappear on heal.
//!
//! All three draw from dedicated [`crate::rng::salts`] streams, so
//! enabling churn never perturbs the draw order of topology, workload,
//! protocol or loss randomness — a churn model at rate zero is
//! bit-identical to [`StaticTopology`] (pinned by a differential
//! property test).
//!
//! [`ChurnSpec`] is the declarative, parse-and-printable form the
//! harness layers carry (`RunOptions`, sweep specs, the serve `init`
//! request), mirroring [`crate::faults::FaultSpec`]; it builds into a
//! runtime-dispatched [`BuiltTopology`].

use std::fmt;
use std::str::FromStr;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::error::Error;
use crate::graph::Graph;
use crate::rng::{self, salts};
use crate::topology::unit_disk_graph;

/// Type-level dynamic-topology capability of an
/// [`Engine`](crate::engine::Engine).
///
/// [`Engine::step`](crate::engine::Engine::step) calls
/// [`TopologyModel::reshape`] once at the top of every round; a
/// `Some(graph)` return replaces the engine's adjacency before any
/// transmission resolves. The default [`StaticTopology`] has
/// `ENABLED = false`, which compiles the hook out of the hot loop —
/// exactly how [`crate::faults::NoFaults`] and
/// [`crate::engine::NoCd`] erase their seams.
///
/// Implementations must be deterministic functions of their own state:
/// the [`crate::verify::ModelChecker`] replays an independent clone of
/// the model round by round and re-derives every reception against the
/// replayed snapshot, so engine and checker must reshape identically.
pub trait TopologyModel {
    /// Whether the topology can change between rounds. `false` removes
    /// the reshape hook from the hot loop entirely.
    const ENABLED: bool;

    /// Called at the top of round `round` with the current adjacency.
    /// Returning `Some(g)` installs `g` (same node count) as the graph
    /// this round's transmissions resolve against; `None` keeps the
    /// current graph. Must be pure in the model's own state — no
    /// global randomness.
    fn reshape(&mut self, round: u64, current: &Graph) -> Option<Graph>;
}

/// The frozen-graph default: the adjacency never changes and the
/// reshape hook compiles out of the engine entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct StaticTopology;

impl TopologyModel for StaticTopology {
    const ENABLED: bool = false;

    #[inline(always)]
    fn reshape(&mut self, _round: u64, _current: &Graph) -> Option<Graph> {
        None
    }
}

/// `g` with every edge incident to `node` removed — the "forgotten
/// incremental update" the engine's test-only churn sabotage switch
/// applies to prove the checker re-derives against the actual
/// snapshot.
#[cfg(test)]
pub(crate) fn drop_node_edges(g: &Graph, node: usize) -> Graph {
    let kept = edge_list(g)
        .into_iter()
        .filter(|&(u, v)| u as usize != node && v as usize != node)
        .map(|(u, v)| (u as usize, v as usize));
    Graph::from_edges(g.len(), kept).expect("subset of valid edges")
}

/// Extracts the undirected edge list of `g` (each edge once, `u < v`).
fn edge_list(g: &Graph) -> Vec<(u32, u32)> {
    let mut edges = Vec::with_capacity(g.edge_count());
    for u in 0..g.len() {
        for &v in g.neighbors(crate::graph::NodeId::new(u)) {
            if v.index() > u {
                #[allow(clippy::cast_possible_truncation)]
                edges.push((u as u32, v.index() as u32));
            }
        }
    }
    edges
}

/// Seeded per-round edge flips over a base edge set: each round, every
/// up edge goes down with probability `rho` and every down edge comes
/// back with probability `heal` — a two-state Markov chain per edge,
/// driven by a dedicated [`salts::CHURN`] stream.
///
/// With `rho == 0` no edge ever leaves the up state, no randomness is
/// drawn, and the run is bit-identical to [`StaticTopology`].
#[derive(Debug, Clone)]
pub struct EdgeChurn {
    n: usize,
    /// The base (round-0) edge set; flips toggle membership, they never
    /// invent edges outside it.
    edges: Vec<(u32, u32)>,
    /// Parallel to `edges`: `true` while the edge is churned away.
    down: Vec<bool>,
    rho: f64,
    heal: f64,
    rng: SmallRng,
}

impl EdgeChurn {
    /// Creates the model over `base`'s edge set. `rho` is the per-round
    /// down-flip probability, `heal` the per-round recovery
    /// probability; both in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Rejects NaN or out-of-range probabilities.
    pub fn new(base: &Graph, rho: f64, heal: f64, seed: u64) -> Result<Self, Error> {
        for (name, p) in [("rho", rho), ("heal", heal)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(Error::InvalidParameter {
                    reason: format!("edge churn: {name}={p} must be in [0, 1]"),
                });
            }
        }
        let edges = edge_list(base);
        Ok(EdgeChurn {
            n: base.len(),
            down: vec![false; edges.len()],
            edges,
            rho,
            heal,
            rng: rng::stream(seed, salts::CHURN),
        })
    }
}

impl TopologyModel for EdgeChurn {
    const ENABLED: bool = true;

    fn reshape(&mut self, _round: u64, _current: &Graph) -> Option<Graph> {
        if self.rho == 0.0 {
            // No edge can ever go down, so no draw is made at all:
            // rate zero is *exactly* the static engine.
            return None;
        }
        let mut changed = false;
        for (i, d) in self.down.iter_mut().enumerate() {
            let _ = i;
            let flip = if *d { self.heal } else { self.rho };
            if flip > 0.0 && self.rng.gen_bool(flip) {
                *d = !*d;
                changed = true;
            }
        }
        if !changed {
            return None;
        }
        let alive = self
            .edges
            .iter()
            .zip(&self.down)
            .filter(|&(_, &down)| !down)
            .map(|(&(u, v), _)| (u as usize, v as usize));
        Some(Graph::from_edges(self.n, alive).expect("base edges stay valid"))
    }
}

/// Unit-disk random-waypoint mobility: `n` seeded points on the unit
/// square each move toward a seeded destination at `speed` per round
/// (drawing a fresh destination on arrival), and the adjacency is the
/// unit-disk graph of the current positions at radius `radius` — built
/// by the same bucket-grid CSR builder as the static
/// `topology::unit_disk` generator, so a round costs O(n · occupancy),
/// not O(n²). Node `i` is the point at `pos[i]`: the waypoint model
/// keeps its own ids and does not apply the static generator's
/// Z-order relabelling, since positions are model state.
///
/// The initial graph handed to the engine is replaced on round 0 by
/// the disk graph of the seeded initial positions (the engine's
/// constructor topology only fixes the node count); positions and
/// destinations come from a dedicated [`salts::WAYPOINT`] stream.
#[derive(Debug, Clone)]
pub struct Waypoint {
    pos: Vec<(f64, f64)>,
    dest: Vec<(f64, f64)>,
    radius: f64,
    speed: f64,
    rng: SmallRng,
}

impl Waypoint {
    /// Creates the model for `n` nodes: communication radius `radius`
    /// (in `(0, ∞)`), movement `speed` per round (in `[0, ∞)`).
    ///
    /// # Errors
    ///
    /// Rejects `n == 0`, non-positive/non-finite `radius`, or a
    /// negative/non-finite `speed`.
    pub fn new(n: usize, radius: f64, speed: f64, seed: u64) -> Result<Self, Error> {
        if n == 0 {
            return Err(Error::EmptyGraph);
        }
        if !(radius > 0.0 && radius.is_finite()) {
            return Err(Error::InvalidParameter {
                reason: format!("waypoint: radius={radius} must be finite and > 0"),
            });
        }
        if !(speed >= 0.0 && speed.is_finite()) {
            return Err(Error::InvalidParameter {
                reason: format!("waypoint: speed={speed} must be finite and >= 0"),
            });
        }
        let mut rng = rng::stream(seed, salts::WAYPOINT);
        let pos: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let dest: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        Ok(Waypoint {
            pos,
            dest,
            radius,
            speed,
            rng,
        })
    }

    /// Advances every point one round toward its destination.
    fn advance(&mut self) {
        for i in 0..self.pos.len() {
            let (x, y) = self.pos[i];
            let (dx, dy) = (self.dest[i].0 - x, self.dest[i].1 - y);
            let dist = (dx * dx + dy * dy).sqrt();
            if dist <= self.speed {
                // Arrived: snap to the waypoint and draw the next one.
                self.pos[i] = self.dest[i];
                self.dest[i] = (self.rng.gen::<f64>(), self.rng.gen::<f64>());
            } else {
                let s = self.speed / dist;
                self.pos[i] = (x + dx * s, y + dy * s);
            }
        }
    }
}

impl TopologyModel for Waypoint {
    const ENABLED: bool = true;

    fn reshape(&mut self, round: u64, current: &Graph) -> Option<Graph> {
        if round > 0 {
            self.advance();
        }
        let g = unit_disk_graph(&self.pos, self.radius);
        // Skip the swap when nothing moved across the radius (also
        // keeps round 0 a no-op when the caller already built the
        // engine on this exact disk graph).
        if g == *current {
            None
        } else {
            Some(g)
        }
    }
}

/// One periodic (or one-shot) partition window: the cut is open —
/// crossing edges removed — whenever `split_at <= r < heal_at`, where
/// `r` is the round number reduced modulo `period` if a period is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First round (mod `period`) of the split.
    pub split_at: u64,
    /// Exclusive end (mod `period`) of the split.
    pub heal_at: u64,
    /// Repeat the window every `period` rounds (`None` = one-shot).
    pub period: Option<u64>,
}

impl PartitionWindow {
    /// Whether the cut is open at `round`.
    #[must_use]
    fn open_at(&self, round: u64) -> bool {
        let r = match self.period {
            Some(p) => round % p,
            None => round,
        };
        (self.split_at..self.heal_at).contains(&r)
    }

    fn validate(&self) -> Result<(), Error> {
        if self.split_at >= self.heal_at {
            return Err(Error::InvalidParameter {
                reason: format!(
                    "partition: window [{}, {}) is empty",
                    self.split_at, self.heal_at
                ),
            });
        }
        if let Some(p) = self.period {
            if p == 0 || self.heal_at > p {
                return Err(Error::InvalidParameter {
                    reason: format!(
                        "partition: period {p} must be >= heal round {}",
                        self.heal_at
                    ),
                });
            }
        }
        Ok(())
    }
}

/// Scheduled component split/merge: a seeded balanced bisection of the
/// node set whose crossing edges vanish while a [`PartitionWindow`] is
/// open and reappear when it heals. With no window (`schedule: None`)
/// the model never touches the graph — bit-identical to
/// [`StaticTopology`].
#[derive(Debug, Clone)]
pub struct PartitionHeal {
    /// The full (healed) graph.
    base: Graph,
    /// The graph with crossing edges removed, prebuilt so each
    /// open/close transition is a clone, not a re-derivation.
    split: Graph,
    schedule: Option<PartitionWindow>,
    /// Whether the cut was open last round (round-0 state: closed).
    open: bool,
}

impl PartitionHeal {
    /// Creates the model over `base` with a seeded balanced bisection
    /// (the side assignment comes from a [`salts::PARTITION`] stream).
    ///
    /// # Errors
    ///
    /// Rejects an empty or inverted window, or a period shorter than
    /// the window.
    pub fn new(base: &Graph, schedule: Option<PartitionWindow>, seed: u64) -> Result<Self, Error> {
        if let Some(w) = &schedule {
            w.validate()?;
        }
        let n = base.len();
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(&mut rng::stream(seed, salts::PARTITION));
        let mut side = vec![false; n];
        for &i in &ids[..n / 2] {
            side[i] = true;
        }
        let within = edge_list(base)
            .into_iter()
            .filter(|&(u, v)| side[u as usize] == side[v as usize])
            .map(|(u, v)| (u as usize, v as usize));
        let split = Graph::from_edges(n, within).expect("base edges stay valid");
        Ok(PartitionHeal {
            base: base.clone(),
            split,
            schedule,
            open: false,
        })
    }
}

impl TopologyModel for PartitionHeal {
    const ENABLED: bool = true;

    fn reshape(&mut self, round: u64, _current: &Graph) -> Option<Graph> {
        let want = self.schedule.as_ref().is_some_and(|w| w.open_at(round));
        if want == self.open {
            return None;
        }
        self.open = want;
        Some(if want {
            self.split.clone()
        } else {
            self.base.clone()
        })
    }
}

/// A runtime-chosen topology model: the dynamically dispatched
/// counterpart of the statically monomorphized models, built from a
/// [`ChurnSpec`]. Always `ENABLED` — use [`StaticTopology`] statically
/// when the frozen-graph hot loop matters. `Clone` so the
/// [`crate::verify::ModelChecker`] can replay an independent replica.
#[derive(Debug, Clone)]
pub enum BuiltTopology {
    /// A frozen graph (but with the reshape hook compiled in).
    Static,
    /// [`EdgeChurn`].
    Edge(EdgeChurn),
    /// [`Waypoint`].
    Waypoint(Waypoint),
    /// [`PartitionHeal`].
    Partition(PartitionHeal),
}

impl TopologyModel for BuiltTopology {
    const ENABLED: bool = true;

    fn reshape(&mut self, round: u64, current: &Graph) -> Option<Graph> {
        match self {
            BuiltTopology::Static => None,
            BuiltTopology::Edge(m) => m.reshape(round, current),
            BuiltTopology::Waypoint(m) => m.reshape(round, current),
            BuiltTopology::Partition(m) => m.reshape(round, current),
        }
    }
}

/// A declarative, parse-and-printable churn configuration — the form
/// `RunOptions`, sweep drivers and the serve `init` request carry.
/// [`ChurnSpec::build`] turns it into a runnable [`BuiltTopology`] for
/// a concrete base graph and seed.
///
/// The text format is `kind:key=val,key=val` (like
/// [`crate::faults::FaultSpec`], but not stackable — one topology
/// model drives a run):
///
/// * `none`
/// * `edge:rho=0.02,heal=0.2` (`heal` defaults to `0.1`; shorthand
///   `edge:0.02`)
/// * `waypoint:radius=0.3,speed=0.01`
/// * `partition:at=200,heal=400` (optionally `,period=1000`)
///
/// `Copy`, so it rides inside copyable option structs such as
/// `RunOptions`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ChurnSpec {
    /// Frozen graph (the default).
    #[default]
    None,
    /// Per-round edge flips — see [`EdgeChurn`].
    Edge {
        /// Per-round probability an up edge goes down.
        rho: f64,
        /// Per-round probability a down edge heals.
        heal: f64,
    },
    /// Random-waypoint mobility — see [`Waypoint`].
    Waypoint {
        /// Unit-disk communication radius.
        radius: f64,
        /// Movement per round.
        speed: f64,
    },
    /// Scheduled split/heal — see [`PartitionHeal`].
    Partition(
        /// The (validated at build) split window.
        PartitionWindow,
    ),
}

impl ChurnSpec {
    /// `true` if this spec never changes the topology.
    #[must_use]
    pub fn is_none(&self) -> bool {
        matches!(self, ChurnSpec::None)
    }

    /// Builds the runnable model over `base`, all streams derived from
    /// `seed`. Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for out-of-range parameters
    /// (see each model's constructor).
    pub fn build(&self, base: &Graph, seed: u64) -> Result<BuiltTopology, Error> {
        Ok(match *self {
            ChurnSpec::None => BuiltTopology::Static,
            ChurnSpec::Edge { rho, heal } => {
                BuiltTopology::Edge(EdgeChurn::new(base, rho, heal, seed)?)
            }
            ChurnSpec::Waypoint { radius, speed } => {
                BuiltTopology::Waypoint(Waypoint::new(base.len(), radius, speed, seed)?)
            }
            ChurnSpec::Partition(w) => {
                BuiltTopology::Partition(PartitionHeal::new(base, Some(w), seed)?)
            }
        })
    }

    /// Stable label for tables and result files (re-parses to the same
    /// spec; same as the `Display` form).
    #[must_use]
    pub fn label(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for ChurnSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChurnSpec::None => write!(f, "none"),
            ChurnSpec::Edge { rho, heal } => write!(f, "edge:rho={rho},heal={heal}"),
            ChurnSpec::Waypoint { radius, speed } => {
                write!(f, "waypoint:radius={radius},speed={speed}")
            }
            ChurnSpec::Partition(w) => {
                write!(f, "partition:at={},heal={}", w.split_at, w.heal_at)?;
                if let Some(p) = w.period {
                    write!(f, ",period={p}")?;
                }
                Ok(())
            }
        }
    }
}

fn bad_spec(reason: String) -> Error {
    Error::InvalidParameter { reason }
}

fn parse_f64(kind: &str, key: &str, val: &str) -> Result<f64, Error> {
    val.parse()
        .map_err(|_| bad_spec(format!("churn spec {kind}: {key}={val} is not a number")))
}

fn parse_u64(kind: &str, key: &str, val: &str) -> Result<u64, Error> {
    val.parse()
        .map_err(|_| bad_spec(format!("churn spec {kind}: {key}={val} is not an integer")))
}

impl FromStr for ChurnSpec {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Error> {
        let s = s.trim();
        if s.is_empty() {
            return Err(bad_spec("empty churn spec".into()));
        }
        let (kind, args) = match s.split_once(':') {
            Some((k, a)) => (k.trim(), a.trim()),
            None => (s, ""),
        };
        // key=val pairs; a single bare value maps to the kind's
        // primary key (same shorthand rule as fault specs).
        let mut kv: Vec<(&str, &str)> = Vec::new();
        if !args.is_empty() {
            for item in args.split(',') {
                let item = item.trim();
                match item.split_once('=') {
                    Some((k, v)) => kv.push((k.trim(), v.trim())),
                    None => kv.push(("", item)),
                }
            }
        }
        let lookup = |key: &str| kv.iter().find(|(k, _)| *k == key).map(|&(_, v)| v);
        let primary = |key: &str| {
            lookup(key).or(match kv.as_slice() {
                [("", v)] => Some(*v),
                _ => None,
            })
        };
        match kind {
            "none" => Ok(ChurnSpec::None),
            "edge" => {
                let rho = primary("rho")
                    .ok_or_else(|| bad_spec("churn spec edge: missing rho".into()))?;
                Ok(ChurnSpec::Edge {
                    rho: parse_f64("edge", "rho", rho)?,
                    heal: lookup("heal")
                        .map(|v| parse_f64("edge", "heal", v))
                        .transpose()?
                        .unwrap_or(0.1),
                })
            }
            "waypoint" => {
                let get = |key: &str| {
                    lookup(key)
                        .ok_or_else(|| bad_spec(format!("churn spec waypoint: missing {key}")))
                };
                Ok(ChurnSpec::Waypoint {
                    radius: parse_f64("waypoint", "radius", get("radius")?)?,
                    speed: parse_f64("waypoint", "speed", get("speed")?)?,
                })
            }
            "partition" => {
                let get = |key: &str| {
                    lookup(key)
                        .ok_or_else(|| bad_spec(format!("churn spec partition: missing {key}")))
                };
                Ok(ChurnSpec::Partition(PartitionWindow {
                    split_at: parse_u64("partition", "at", get("at")?)?,
                    heal_at: parse_u64("partition", "heal", get("heal")?)?,
                    period: lookup("period")
                        .map(|v| parse_u64("partition", "period", v))
                        .transpose()?,
                }))
            }
            other => Err(bad_spec(format!(
                "unknown churn kind {other:?} (expected none/edge/waypoint/partition)"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    #[test]
    fn static_topology_is_disabled_and_inert() {
        const { assert!(!StaticTopology::ENABLED) };
        let g = topology::path(3).unwrap();
        assert!(StaticTopology.reshape(0, &g).is_none());
        assert!(StaticTopology.reshape(7, &g).is_none());
    }

    #[test]
    fn edge_churn_zero_rate_never_reshapes_or_draws() {
        let g = topology::grid2d(4, 4).unwrap();
        let mut m = EdgeChurn::new(&g, 0.0, 0.5, 7).unwrap();
        let before = m.rng.clone();
        for r in 0..64 {
            assert!(m.reshape(r, &g).is_none());
        }
        assert_eq!(m.rng, before, "rate-0 churn must not advance its RNG");
    }

    #[test]
    fn edge_churn_flips_and_heals_deterministically() {
        let g = topology::grid2d(5, 5).unwrap();
        let run = |seed: u64| -> Vec<usize> {
            let mut m = EdgeChurn::new(&g, 0.2, 0.3, seed).unwrap();
            let mut cur = g.clone();
            (0..50)
                .map(|r| {
                    if let Some(next) = m.reshape(r, &cur) {
                        cur = next;
                    }
                    cur.edge_count()
                })
                .collect()
        };
        let a = run(3);
        assert_eq!(a, run(3));
        assert_ne!(a, run(4));
        assert!(
            a.iter().any(|&e| e < g.edge_count()),
            "churn at rho=0.2 must remove edges"
        );
        // Never invents edges beyond the base set.
        assert!(a.iter().all(|&e| e <= g.edge_count()));
    }

    #[test]
    fn edge_churn_rejects_bad_rates() {
        let g = topology::path(3).unwrap();
        assert!(EdgeChurn::new(&g, f64::NAN, 0.1, 0).is_err());
        assert!(EdgeChurn::new(&g, -0.1, 0.1, 0).is_err());
        assert!(EdgeChurn::new(&g, 1.5, 0.1, 0).is_err());
        assert!(EdgeChurn::new(&g, 0.1, f64::NAN, 0).is_err());
    }

    #[test]
    fn waypoint_moves_points_and_rederives_disk_graph() {
        let mut m = Waypoint::new(40, 0.4, 0.05, 9).unwrap();
        let g0 = topology::path(40).unwrap();
        // Round 0 replaces the constructor topology with the disk
        // graph of the seeded initial positions.
        let g1 = m.reshape(0, &g0).expect("disk graph differs from path");
        assert_eq!(g1.len(), 40);
        // Motion eventually crosses the radius somewhere.
        let mut cur = g1.clone();
        let mut changed = false;
        for r in 1..200 {
            if let Some(next) = m.reshape(r, &cur) {
                changed = true;
                cur = next;
            }
        }
        assert!(changed, "waypoint motion never changed the adjacency");
        // Determinism: same seed, same trajectory.
        let mut m2 = Waypoint::new(40, 0.4, 0.05, 9).unwrap();
        let mut cur2 = m2.reshape(0, &g0).unwrap();
        for r in 1..200 {
            if let Some(next) = m2.reshape(r, &cur2) {
                cur2 = next;
            }
        }
        assert_eq!(cur, cur2);
    }

    #[test]
    fn waypoint_zero_speed_freezes_after_round_zero() {
        let mut m = Waypoint::new(30, 0.35, 0.0, 4).unwrap();
        let g0 = topology::path(30).unwrap();
        let g1 = m.reshape(0, &g0).expect("initial disk graph");
        for r in 1..50 {
            assert!(m.reshape(r, &g1).is_none(), "round {r} moved a frozen node");
        }
    }

    #[test]
    fn waypoint_validates() {
        assert!(Waypoint::new(0, 0.3, 0.01, 0).is_err());
        assert!(Waypoint::new(4, 0.0, 0.01, 0).is_err());
        assert!(Waypoint::new(4, f64::NAN, 0.01, 0).is_err());
        assert!(Waypoint::new(4, 0.3, -0.1, 0).is_err());
    }

    #[test]
    fn partition_opens_and_heals_on_schedule() {
        let g = topology::grid2d(4, 4).unwrap();
        let w = PartitionWindow {
            split_at: 3,
            heal_at: 6,
            period: None,
        };
        let mut m = PartitionHeal::new(&g, Some(w), 5).unwrap();
        assert!(m.reshape(0, &g).is_none());
        let split = m.reshape(3, &g).expect("cut opens at round 3");
        assert!(split.edge_count() < g.edge_count());
        assert!(!split.is_connected(), "an open balanced cut disconnects");
        assert!(m.reshape(4, &split).is_none(), "no re-swap while open");
        let healed = m.reshape(6, &split).expect("cut heals at round 6");
        assert_eq!(healed, g);
    }

    #[test]
    fn partition_periodic_window_repeats() {
        let g = topology::grid2d(4, 4).unwrap();
        let w = PartitionWindow {
            split_at: 2,
            heal_at: 4,
            period: Some(10),
        };
        let mut m = PartitionHeal::new(&g, Some(w), 5).unwrap();
        let mut transitions = Vec::new();
        let mut cur = g.clone();
        for r in 0..30 {
            if let Some(next) = m.reshape(r, &cur) {
                transitions.push(r);
                cur = next;
            }
        }
        assert_eq!(transitions, vec![2, 4, 12, 14, 22, 24]);
    }

    #[test]
    fn partition_empty_schedule_is_inert() {
        let g = topology::grid2d(4, 4).unwrap();
        let mut m = PartitionHeal::new(&g, None, 5).unwrap();
        for r in 0..50 {
            assert!(m.reshape(r, &g).is_none());
        }
    }

    #[test]
    fn partition_validates_window() {
        let g = topology::path(4).unwrap();
        let bad = |split_at, heal_at, period| {
            PartitionHeal::new(
                &g,
                Some(PartitionWindow {
                    split_at,
                    heal_at,
                    period,
                }),
                0,
            )
            .is_err()
        };
        assert!(bad(5, 5, None));
        assert!(bad(6, 5, None));
        assert!(bad(2, 4, Some(3)));
        assert!(bad(2, 4, Some(0)));
        assert!(!bad(2, 4, Some(4)));
    }

    #[test]
    fn spec_roundtrips_through_display() {
        let cases = [
            ChurnSpec::None,
            ChurnSpec::Edge {
                rho: 0.02,
                heal: 0.2,
            },
            ChurnSpec::Waypoint {
                radius: 0.3,
                speed: 0.01,
            },
            ChurnSpec::Partition(PartitionWindow {
                split_at: 200,
                heal_at: 400,
                period: None,
            }),
            ChurnSpec::Partition(PartitionWindow {
                split_at: 200,
                heal_at: 400,
                period: Some(1000),
            }),
        ];
        for spec in cases {
            let printed = spec.to_string();
            let reparsed: ChurnSpec = printed.parse().unwrap();
            assert_eq!(reparsed, spec, "{printed} did not round-trip");
        }
    }

    #[test]
    fn spec_parses_shorthand_and_defaults() {
        assert_eq!(
            "edge:0.05".parse::<ChurnSpec>().unwrap(),
            ChurnSpec::Edge {
                rho: 0.05,
                heal: 0.1
            }
        );
        assert_eq!("none".parse::<ChurnSpec>().unwrap(), ChurnSpec::None);
    }

    #[test]
    fn spec_rejects_malformed_input() {
        for bad in [
            "",
            "edge",
            "edge:rho=abc",
            "waypoint:radius=0.3",
            "partition:at=5",
            "partition:at=x,heal=9",
            "mobility:rate=0.1",
            "edge:rho=0.1+partition:at=1,heal=2",
        ] {
            assert!(bad.parse::<ChurnSpec>().is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn spec_build_validates_parameters() {
        let g = topology::path(4).unwrap();
        assert!(matches!(
            ChurnSpec::None.build(&g, 0).unwrap(),
            BuiltTopology::Static
        ));
        assert!(ChurnSpec::Edge {
            rho: 2.0,
            heal: 0.1
        }
        .build(&g, 0)
        .is_err());
        assert!(ChurnSpec::Waypoint {
            radius: 0.0,
            speed: 0.1
        }
        .build(&g, 0)
        .is_err());
        assert!(ChurnSpec::Partition(PartitionWindow {
            split_at: 9,
            heal_at: 9,
            period: None
        })
        .build(&g, 0)
        .is_err());
    }

    #[test]
    fn built_topology_replica_replays_identically() {
        // The checker's soundness rests on this: a cloned model fed the
        // same round sequence must produce the same graphs.
        let g = topology::grid2d(5, 5).unwrap();
        let spec = ChurnSpec::Edge {
            rho: 0.1,
            heal: 0.2,
        };
        let mut a = spec.build(&g, 11).unwrap();
        let mut b = a.clone();
        let mut ga = g.clone();
        let mut gb = g.clone();
        for r in 0..100 {
            if let Some(next) = a.reshape(r, &ga) {
                ga = next;
            }
            if let Some(next) = b.reshape(r, &gb) {
                gb = next;
            }
            assert_eq!(ga, gb, "replica diverged at round {r}");
        }
    }
}
