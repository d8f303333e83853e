//! Topology generators for the experiment families.
//!
//! Deterministic families ([`path`], [`cycle`], [`star`], [`complete`],
//! [`grid2d`], [`binary_tree`], [`dumbbell`], [`lollipop`], [`caterpillar`])
//! and randomized families ([`gnp_connected`], [`random_tree`],
//! [`unit_disk`], [`random_regular`]) cover the parameter space the paper's
//! bounds range over: large diameter / small degree (paths, grids), small
//! diameter / large degree (stars, cliques, dense G(n,p)), and the
//! in-between (unit-disk graphs, bounded-degree random graphs).
//!
//! The [`Topology`] enum describes a family plus its parameters as data, so
//! experiment sweeps can be tabulated, printed and reproduced.

mod deterministic;
mod random;

pub use deterministic::{
    binary_tree, caterpillar, complete, cycle, dumbbell, grid2d, hypercube, lollipop, path, star,
    torus,
};
pub(crate) use random::unit_disk_graph;
pub use random::{gnp_connected, random_regular, random_tree, unit_disk, MAX_ATTEMPTS};

use std::fmt;
use std::str::FromStr;

use crate::error::Error;
use crate::graph::Graph;

/// A topology family plus parameters, as plain data.
///
/// ```
/// use radio_net::topology::Topology;
///
/// # fn main() -> Result<(), radio_net::error::Error> {
/// let g = Topology::Grid2d { rows: 4, cols: 5 }.build(0)?;
/// assert_eq!(g.len(), 20);
/// assert_eq!(g.diameter(), Some(7));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum Topology {
    /// Simple path of `n` nodes (diameter `n-1`, Δ = 2).
    Path {
        /// Number of nodes.
        n: usize,
    },
    /// Cycle of `n` nodes.
    Cycle {
        /// Number of nodes.
        n: usize,
    },
    /// Star: node 0 is the hub (D = 2, Δ = n-1).
    Star {
        /// Number of nodes.
        n: usize,
    },
    /// Complete graph (D = 1, Δ = n-1).
    Complete {
        /// Number of nodes.
        n: usize,
    },
    /// `rows × cols` grid.
    Grid2d {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// `rows × cols` torus (grid with wraparound).
    Torus {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// `d`-dimensional hypercube (`2^d` nodes).
    Hypercube {
        /// Dimension.
        d: usize,
    },
    /// Complete binary tree of `n` nodes (heap layout).
    BinaryTree {
        /// Number of nodes.
        n: usize,
    },
    /// Two cliques of `clique` nodes joined by a path of `bridge` nodes.
    Dumbbell {
        /// Nodes per clique.
        clique: usize,
        /// Nodes on the connecting path (may be 0).
        bridge: usize,
    },
    /// Clique of `clique` nodes with a pendant path of `tail` nodes.
    Lollipop {
        /// Nodes in the clique.
        clique: usize,
        /// Nodes on the tail path.
        tail: usize,
    },
    /// Spine path of `spine` nodes, each with `legs` pendant leaves.
    Caterpillar {
        /// Nodes on the spine.
        spine: usize,
        /// Leaves per spine node.
        legs: usize,
    },
    /// Erdős–Rényi G(n, p), resampled until connected.
    Gnp {
        /// Number of nodes.
        n: usize,
        /// Edge probability.
        p: f64,
    },
    /// Uniform random labelled tree (via Prüfer sequences).
    RandomTree {
        /// Number of nodes.
        n: usize,
    },
    /// Random unit-disk graph on the unit square, resampled until connected.
    UnitDisk {
        /// Number of nodes.
        n: usize,
        /// Connection radius.
        radius: f64,
    },
    /// Random `d`-regular graph (configuration model, resampled until
    /// simple and connected).
    RandomRegular {
        /// Number of nodes.
        n: usize,
        /// Degree of every node.
        d: usize,
    },
}

impl Topology {
    /// Builds the graph. Randomized families draw from a stream derived
    /// from `seed` (see [`crate::rng`]); deterministic families ignore it.
    ///
    /// # Errors
    ///
    /// Propagates the underlying generator's error: invalid parameters or
    /// exhausted connectivity retries.
    pub fn build(&self, seed: u64) -> Result<Graph, Error> {
        match *self {
            Topology::Path { n } => path(n),
            Topology::Cycle { n } => cycle(n),
            Topology::Star { n } => star(n),
            Topology::Complete { n } => complete(n),
            Topology::Grid2d { rows, cols } => grid2d(rows, cols),
            Topology::Torus { rows, cols } => torus(rows, cols),
            Topology::Hypercube { d } => hypercube(d),
            Topology::BinaryTree { n } => binary_tree(n),
            Topology::Dumbbell { clique, bridge } => dumbbell(clique, bridge),
            Topology::Lollipop { clique, tail } => lollipop(clique, tail),
            Topology::Caterpillar { spine, legs } => caterpillar(spine, legs),
            Topology::Gnp { n, p } => gnp_connected(n, p, seed),
            Topology::RandomTree { n } => random_tree(n, seed),
            Topology::UnitDisk { n, radius } => unit_disk(n, radius, seed),
            Topology::RandomRegular { n, d } => random_regular(n, d, seed),
        }
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Topology::Path { n } => write!(f, "path(n={n})"),
            Topology::Cycle { n } => write!(f, "cycle(n={n})"),
            Topology::Star { n } => write!(f, "star(n={n})"),
            Topology::Complete { n } => write!(f, "complete(n={n})"),
            Topology::Grid2d { rows, cols } => write!(f, "grid({rows}x{cols})"),
            Topology::Torus { rows, cols } => write!(f, "torus({rows}x{cols})"),
            Topology::Hypercube { d } => write!(f, "hypercube(d={d})"),
            Topology::BinaryTree { n } => write!(f, "btree(n={n})"),
            Topology::Dumbbell { clique, bridge } => {
                write!(f, "dumbbell(clique={clique},bridge={bridge})")
            }
            Topology::Lollipop { clique, tail } => {
                write!(f, "lollipop(clique={clique},tail={tail})")
            }
            Topology::Caterpillar { spine, legs } => {
                write!(f, "caterpillar(spine={spine},legs={legs})")
            }
            Topology::Gnp { n, p } => write!(f, "gnp(n={n},p={p})"),
            Topology::RandomTree { n } => write!(f, "rtree(n={n})"),
            Topology::UnitDisk { n, radius } => write!(f, "udg(n={n},r={radius})"),
            Topology::RandomRegular { n, d } => write!(f, "regular(n={n},d={d})"),
        }
    }
}

fn bad_topology(reason: String) -> Error {
    Error::InvalidParameter { reason }
}

/// Splits `family(args)` into `(family, args)`.
fn split_call(s: &str) -> Result<(&str, &str), Error> {
    let open = s
        .find('(')
        .ok_or_else(|| bad_topology(format!("topology {s:?}: expected family(args)")))?;
    let rest = &s[open + 1..];
    let close = rest
        .rfind(')')
        .ok_or_else(|| bad_topology(format!("topology {s:?}: missing ')'")))?;
    if !rest[close + 1..].trim().is_empty() {
        return Err(bad_topology(format!("topology {s:?}: trailing garbage")));
    }
    Ok((s[..open].trim(), rest[..close].trim()))
}

/// Parses `key=val,key=val` arguments into a lookup list.
fn parse_kv(args: &str) -> Result<Vec<(String, String)>, Error> {
    let mut kv = Vec::new();
    for item in args.split(',') {
        let item = item.trim();
        let (k, v) = item
            .split_once('=')
            .ok_or_else(|| bad_topology(format!("topology argument {item:?}: expected key=val")))?;
        kv.push((k.trim().to_string(), v.trim().to_string()));
    }
    Ok(kv)
}

fn parse_usize(family: &str, key: &str, val: &str) -> Result<usize, Error> {
    val.parse()
        .map_err(|_| bad_topology(format!("topology {family}: {key}={val} is not an integer")))
}

fn parse_f64(family: &str, key: &str, val: &str) -> Result<f64, Error> {
    val.parse()
        .map_err(|_| bad_topology(format!("topology {family}: {key}={val} is not a number")))
}

impl FromStr for Topology {
    type Err = Error;

    /// Parses the [`fmt::Display`] form back into a spec, so topologies
    /// echoed by result files and service responses can be fed back in
    /// verbatim: `path(n=5)`, `grid(4x8)`, `torus(3x4)`,
    /// `hypercube(d=3)`, `dumbbell(clique=3,bridge=2)`,
    /// `udg(n=16,r=0.6)`, ...
    fn from_str(s: &str) -> Result<Self, Error> {
        let s = s.trim();
        if s.is_empty() {
            return Err(bad_topology("empty topology spec".into()));
        }
        let (family, args) = split_call(s)?;
        // grid/torus take the `RxC` shorthand rather than key=val pairs.
        if family == "grid" || family == "torus" {
            let (r, c) = args.split_once('x').ok_or_else(|| {
                bad_topology(format!("topology {family}: expected {family}(RxC)"))
            })?;
            let rows = parse_usize(family, "rows", r.trim())?;
            let cols = parse_usize(family, "cols", c.trim())?;
            return Ok(if family == "grid" {
                Topology::Grid2d { rows, cols }
            } else {
                Topology::Torus { rows, cols }
            });
        }
        let kv = parse_kv(args)?;
        let get = |key: &str| {
            kv.iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v.as_str())
                .ok_or_else(|| bad_topology(format!("topology {family}: missing {key}")))
        };
        let n = |key: &str| parse_usize(family, key, get(key)?);
        match family {
            "path" => Ok(Topology::Path { n: n("n")? }),
            "cycle" => Ok(Topology::Cycle { n: n("n")? }),
            "star" => Ok(Topology::Star { n: n("n")? }),
            "complete" => Ok(Topology::Complete { n: n("n")? }),
            "hypercube" => Ok(Topology::Hypercube { d: n("d")? }),
            "btree" => Ok(Topology::BinaryTree { n: n("n")? }),
            "dumbbell" => Ok(Topology::Dumbbell {
                clique: n("clique")?,
                bridge: n("bridge")?,
            }),
            "lollipop" => Ok(Topology::Lollipop {
                clique: n("clique")?,
                tail: n("tail")?,
            }),
            "caterpillar" => Ok(Topology::Caterpillar {
                spine: n("spine")?,
                legs: n("legs")?,
            }),
            "gnp" => Ok(Topology::Gnp {
                n: n("n")?,
                p: parse_f64(family, "p", get("p")?)?,
            }),
            "rtree" => Ok(Topology::RandomTree { n: n("n")? }),
            "udg" => Ok(Topology::UnitDisk {
                n: n("n")?,
                radius: parse_f64(family, "r", get("r")?)?,
            }),
            "regular" => Ok(Topology::RandomRegular {
                n: n("n")?,
                d: n("d")?,
            }),
            other => Err(bad_topology(format!(
                "unknown topology family {other:?} (expected path/cycle/star/complete/grid/\
                 torus/hypercube/btree/dumbbell/lollipop/caterpillar/gnp/rtree/udg/regular)"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_dispatches_every_family() {
        let families = [
            Topology::Path { n: 5 },
            Topology::Cycle { n: 5 },
            Topology::Star { n: 5 },
            Topology::Complete { n: 5 },
            Topology::Grid2d { rows: 2, cols: 3 },
            Topology::Torus { rows: 3, cols: 4 },
            Topology::Hypercube { d: 3 },
            Topology::BinaryTree { n: 7 },
            Topology::Dumbbell {
                clique: 3,
                bridge: 2,
            },
            Topology::Lollipop { clique: 3, tail: 2 },
            Topology::Caterpillar { spine: 3, legs: 2 },
            Topology::Gnp { n: 16, p: 0.4 },
            Topology::RandomTree { n: 16 },
            Topology::UnitDisk { n: 16, radius: 0.6 },
            Topology::RandomRegular { n: 16, d: 3 },
        ];
        for t in families {
            let g = t.build(1).unwrap_or_else(|e| panic!("{t}: {e}"));
            assert!(g.is_connected(), "{t} must be connected");
            assert!(!t.to_string().is_empty());
        }
    }

    #[test]
    fn randomized_families_are_seed_deterministic() {
        let t = Topology::Gnp { n: 24, p: 0.3 };
        assert_eq!(t.build(9).unwrap(), t.build(9).unwrap());
    }

    #[test]
    fn display_round_trips_through_from_str_for_every_family() {
        let families = [
            Topology::Path { n: 5 },
            Topology::Cycle { n: 6 },
            Topology::Star { n: 7 },
            Topology::Complete { n: 8 },
            Topology::Grid2d { rows: 4, cols: 8 },
            Topology::Torus { rows: 3, cols: 4 },
            Topology::Hypercube { d: 3 },
            Topology::BinaryTree { n: 7 },
            Topology::Dumbbell {
                clique: 3,
                bridge: 2,
            },
            Topology::Lollipop { clique: 3, tail: 2 },
            Topology::Caterpillar { spine: 3, legs: 2 },
            Topology::Gnp { n: 16, p: 0.4 },
            Topology::RandomTree { n: 16 },
            Topology::UnitDisk { n: 16, radius: 0.6 },
            Topology::RandomRegular { n: 16, d: 3 },
        ];
        for t in families {
            let text = t.to_string();
            let parsed: Topology = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, t, "{text} must re-parse to the same spec");
        }
    }

    #[test]
    fn from_str_accepts_whitespace_and_rejects_garbage() {
        assert_eq!(
            " grid( 4x8 ) ".parse::<Topology>().unwrap(),
            Topology::Grid2d { rows: 4, cols: 8 }
        );
        assert_eq!(
            "udg(n=16, r=0.6)".parse::<Topology>().unwrap(),
            Topology::UnitDisk { n: 16, radius: 0.6 }
        );
        for bad in [
            "",
            "grid",
            "grid(4x8)x",
            "grid(4)",
            "mesh(n=4)",
            "path(n=x)",
            "gnp(n=16)",
            "path(5)",
        ] {
            assert!(bad.parse::<Topology>().is_err(), "{bad:?} must not parse");
        }
    }
}
