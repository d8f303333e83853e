//! Algorithm-comparison sweeps used by experiments E1, E2, E3 and E12:
//! run the coded algorithm, the uncoded ablation and the BII baseline
//! over a parameter grid via [`crate::session::sweep_protocol`] and
//! aggregate per-algorithm medians.

use kbcast::baseline::BiiProtocol;
use kbcast::runner::CodedProtocol;
use kbcast::session::SessionReport;
use radio_net::topology::Topology;

use crate::session::{probe, successes, sweep_protocol, SweepSpec};
use crate::stats::median;

/// Which algorithm a record belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// The paper's coded algorithm (all four stages).
    Coded,
    /// The paper's algorithm with `group_size_override = 1` (no coding
    /// gain in Stage 4).
    Uncoded,
    /// The Bar-Yehuda–Israeli–Itai baseline.
    Bii,
}

impl std::fmt::Display for Algo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algo::Coded => write!(f, "coded"),
            Algo::Uncoded => write!(f, "uncoded"),
            Algo::Bii => write!(f, "bii"),
        }
    }
}

/// One aggregated measurement (median over seeds).
#[derive(Clone, Debug)]
pub struct Point {
    /// Algorithm.
    pub algo: Algo,
    /// Nodes.
    pub n: usize,
    /// Packets.
    pub k: usize,
    /// Diameter of the (first seed's) topology.
    pub diameter: usize,
    /// Max degree of the (first seed's) topology.
    pub max_degree: usize,
    /// Seeds that completed successfully.
    pub successes: usize,
    /// Seeds attempted.
    pub seeds: usize,
    /// Median total rounds over successful seeds.
    pub rounds: f64,
    /// Median amortized rounds per packet over successful seeds.
    pub amortized: f64,
    /// Median Stage 4 (dissemination) rounds — 0 for BII, which has no
    /// stages.
    pub dissem_rounds: f64,
}

/// Medians of `(rounds, amortized, dissem)` over the successful reports,
/// plus the success count.
fn summarize<M>(
    reports: &[SessionReport<M>],
    dissem: impl Fn(&SessionReport<M>) -> f64,
) -> (usize, f64, f64, f64) {
    let ok: Vec<&SessionReport<M>> = successes(reports).collect();
    #[allow(clippy::cast_precision_loss)]
    let rounds: Vec<f64> = ok.iter().map(|r| r.rounds_total as f64).collect();
    let amortized: Vec<f64> = ok.iter().map(|r| r.amortized_rounds_per_packet()).collect();
    let dissem: Vec<f64> = ok.iter().map(|r| dissem(r)).collect();
    (
        ok.len(),
        median(&rounds),
        median(&amortized),
        median(&dissem),
    )
}

/// Runs `algo` on `topology` with a random `k`-packet workload for each
/// seed in `0..seeds`, and aggregates.
///
/// Seeds fan out across [`crate::parallel::thread_count`] worker
/// threads; results are collected back in seed order, so every
/// aggregate is bit-identical to a sequential run (set
/// `KBCAST_THREADS=1` to force one).
///
/// # Panics
///
/// Panics if the topology fails to build.
#[must_use]
pub fn measure(algo: Algo, topology: &Topology, k: usize, seeds: u64) -> Point {
    let net = probe(topology);
    let spec = SweepSpec::new(topology, k, seeds);
    let (successes, rounds, amortized, dissem_rounds) = match algo {
        Algo::Coded | Algo::Uncoded => {
            let proto = CodedProtocol {
                config: None,
                uncoded: algo == Algo::Uncoded,
            };
            #[allow(clippy::cast_precision_loss)]
            summarize(&sweep_protocol(&proto, &spec), |r| {
                r.meta.stages.disseminate as f64
            })
        }
        Algo::Bii => summarize(&sweep_protocol(&BiiProtocol::default(), &spec), |_| 0.0),
    };
    Point {
        algo,
        n: net.n,
        k,
        diameter: net.diameter,
        max_degree: net.max_degree,
        successes,
        seeds: usize::try_from(seeds).expect("fits"),
        rounds,
        amortized,
        dissem_rounds,
    }
}

/// A G(n, p) topology with `p = 2·ln n / n` — connected w.h.p., diameter
/// `O(log n)`; the default experiment family.
#[must_use]
pub fn gnp_standard(n: usize) -> Topology {
    #[allow(clippy::cast_precision_loss)]
    let p = (2.0 * (n as f64).ln() / n as f64).min(1.0);
    Topology::Gnp { n, p }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kbcast::runner::{RunOptions, Workload};
    use kbcast::session::run_protocol_on_graph;

    #[test]
    fn measure_small_coded() {
        let p = measure(Algo::Coded, &Topology::Path { n: 6 }, 4, 2);
        assert_eq!(p.successes, 2);
        assert!(p.rounds > 0.0);
        assert!(p.amortized > 0.0);
    }

    #[test]
    fn measure_small_bii() {
        let p = measure(Algo::Bii, &Topology::Path { n: 6 }, 4, 2);
        assert_eq!(p.successes, 2);
        assert_eq!(p.dissem_rounds, 0.0);
    }

    #[test]
    fn measure_bit_identical_to_single_sessions() {
        // `measure` routes through the parallel sweep driver; rebuild
        // the same aggregates from single driver sessions in a plain
        // sequential loop and demand bit-identical medians.
        let topo = Topology::Gnp { n: 20, p: 0.3 };
        for algo in [Algo::Coded, Algo::Bii] {
            let p = measure(algo, &topo, 6, 4);
            let seq: Vec<Option<(f64, f64, f64)>> = (0..4)
                .map(|seed| {
                    let w = Workload::random(20, 6, seed);
                    let g = topo.build(seed).expect("topology builds");
                    #[allow(clippy::cast_precision_loss)]
                    match algo {
                        Algo::Coded | Algo::Uncoded => {
                            let r = run_protocol_on_graph(
                                &CodedProtocol::default(),
                                g,
                                &w,
                                seed,
                                RunOptions::default(),
                            )
                            .expect("run");
                            r.success.then(|| {
                                (
                                    r.rounds_total as f64,
                                    r.amortized_rounds_per_packet(),
                                    r.meta.stages.disseminate as f64,
                                )
                            })
                        }
                        Algo::Bii => {
                            let r = run_protocol_on_graph(
                                &BiiProtocol::default(),
                                g,
                                &w,
                                seed,
                                RunOptions::default(),
                            )
                            .expect("run");
                            r.success.then(|| {
                                (r.rounds_total as f64, r.amortized_rounds_per_packet(), 0.0)
                            })
                        }
                    }
                })
                .collect();
            let ok = || seq.iter().flatten();
            assert_eq!(p.successes, ok().count());
            let rounds: Vec<f64> = ok().map(|r| r.0).collect();
            let amortized: Vec<f64> = ok().map(|r| r.1).collect();
            let dissem: Vec<f64> = ok().map(|r| r.2).collect();
            assert_eq!(p.rounds.to_bits(), median(&rounds).to_bits());
            assert_eq!(p.amortized.to_bits(), median(&amortized).to_bits());
            assert_eq!(p.dissem_rounds.to_bits(), median(&dissem).to_bits());
        }
    }

    #[test]
    fn per_seed_sessions_independent_of_thread_count() {
        use crate::parallel::par_map_indexed_with;
        let topo = Topology::Path { n: 8 };
        let proto = CodedProtocol::default();
        let run = |i: usize| {
            let seed = i as u64;
            let g = topo.build(seed).expect("topology builds");
            let w = Workload::random(8, 4, seed);
            let r = run_protocol_on_graph(&proto, g, &w, seed, RunOptions::default()).expect("run");
            (r.success, r.rounds_total, r.stats)
        };
        let one = par_map_indexed_with(1, 3, run);
        let many = par_map_indexed_with(3, 3, run);
        assert_eq!(one, many);
    }

    #[test]
    fn gnp_standard_is_connected() {
        for n in [16, 64, 256] {
            assert!(gnp_standard(n).build(1).unwrap().is_connected());
        }
    }

    #[test]
    fn algo_display() {
        assert_eq!(Algo::Coded.to_string(), "coded");
        assert_eq!(Algo::Uncoded.to_string(), "uncoded");
        assert_eq!(Algo::Bii.to_string(), "bii");
    }
}
