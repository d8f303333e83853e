//! Differential property tests for the dynamic-topology seam: an
//! *inert* churn model must be indistinguishable from the frozen graph.
//!
//! Every session runs the engine over a `BuiltTopology`; an empty churn
//! spec builds `BuiltTopology::Static`, whose reshape returns `None`
//! without touching any model state. Two laws, each checked at
//! full-session granularity on random edge-list graphs (including
//! word-boundary sizes, 60..100 nodes, so multi-word bitset state with
//! a masked tail word is in scope):
//!
//! * **Rate-zero edge churn ≡ static.** `edge:rho=0` builds a live
//!   `EdgeChurn` model whose reshape runs every round but never flips
//!   an edge — and, crucially, never advances its RNG stream. The run
//!   must be bit-identical to the empty spec's `Static` session: same
//!   completion, same rounds, same channel statistics, same per-node
//!   delivery. Any drift means the model perturbed engine state (or
//!   drew randomness) on the do-nothing path.
//!
//! * **Empty-schedule partition ≡ static.** `PartitionHeal` with no
//!   window precomputes its bisection but never opens it; same
//!   contract.
//!
//! Both laws run with `verify: true`, so the churn-aware
//! [`ModelChecker`] replica is also exercised on the inert path — a
//! false positive there fails the run with `VerificationFailed`.

use proptest::prelude::*;
use radio_kbcast::kbcast::runner::{CodedProtocol, RunOptions, Workload};
use radio_kbcast::kbcast::session::run_protocol_on_graph;
use radio_kbcast::radio_net::dyntopo::{ChurnSpec, PartitionWindow};
use radio_kbcast::radio_net::graph::Graph;
use radio_kbcast::radio_net::stats::SimStats;

/// Everything a session exposes, flattened for equality: outcome,
/// round count, the full channel-statistics block and the per-node
/// delivered fraction (a scalar digest of every node's final holdings).
#[derive(Debug, PartialEq)]
struct Fingerprint {
    success: bool,
    rounds: u64,
    delivered_fraction: f64,
    stats: SimStats,
}

fn run_with(graph: Graph, seed: u64, k: usize, churn: ChurnSpec) -> Fingerprint {
    let w = Workload::random(graph.len(), k, seed);
    let options = RunOptions {
        verify: true,
        churn,
        ..RunOptions::default()
    };
    let r = run_protocol_on_graph(&CodedProtocol::default(), graph, &w, seed, options)
        .expect("session runs without verifier violations");
    Fingerprint {
        success: r.success,
        rounds: r.rounds_total,
        delivered_fraction: r.delivered_fraction,
        stats: r.stats,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn rate_zero_edge_churn_is_bit_identical_to_static(
        topo in proptest::graph::edge_list(60..100),
        seed in 0u64..1024,
        k in 1usize..4,
    ) {
        let graph = Graph::from_edges(topo.n, topo.edges.clone()).expect("valid edges");
        let baseline = run_with(graph.clone(), seed, k, ChurnSpec::None);
        let inert = run_with(graph, seed, k, ChurnSpec::Edge { rho: 0.0, heal: 0.1 });
        prop_assert_eq!(inert, baseline);
    }

    #[test]
    fn empty_schedule_partition_is_bit_identical_to_static(
        topo in proptest::graph::edge_list(60..100),
        seed in 0u64..1024,
        k in 1usize..4,
    ) {
        let graph = Graph::from_edges(topo.n, topo.edges.clone()).expect("valid edges");
        let baseline = run_with(graph.clone(), seed, k, ChurnSpec::None);
        // A window is required by the spec grammar, but a periodic
        // window whose split lies beyond any reachable round is the
        // session-level "empty schedule": `open_at` is false for every
        // executed round, so the split graph is never swapped in.
        let window = PartitionWindow {
            split_at: u64::MAX - 1,
            heal_at: u64::MAX,
            period: None,
        };
        let inert = run_with(graph, seed, k, ChurnSpec::Partition(window));
        prop_assert_eq!(inert, baseline);
    }
}
