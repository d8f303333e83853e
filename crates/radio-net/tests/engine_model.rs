//! Model-checking the engine against a brute-force reference
//! implementation of the radio semantics: for random graphs and random
//! transmission scripts, the engine's deliveries must match the
//! definition "a listener receives iff exactly one neighbor transmits",
//! with half-duplex transmitters and wake-on-first-reception.
//!
//! Three instantiations of the same differential check:
//!
//! * small graphs (3..10 nodes) — minimal counterexamples;
//! * large graphs (60..100 nodes) — node counts straddling the 64-bit
//!   word boundary of the engine's bitset planes (tail-word masking)
//!   and, because the edge count is drawn independently of `n`, sparse
//!   samples with isolated nodes;
//! * hinted nodes — scripts that additionally implement
//!   [`Node::next_activity`] from their plan, exercising the engine's
//!   park/unpark machinery against the always-polling reference;
//! * the CD differential — the same script run on `Engine<_, _, NoCd>`
//!   and `Engine<_, _, WithCd>` must produce bit-identical outcomes,
//!   receptions and stats (collision-noise is informational only), and
//!   the `WithCd` noise log must match the reference derivation
//!   "awake non-transmitting listener with >= 2 transmitting
//!   neighbors" while the `NoCd` hook never fires at all.

use proptest::prelude::*;
use radio_net::dyntopo::BuiltTopology;
use radio_net::engine::{CdModel, Engine, Node};
use radio_net::faults::BuiltFaults;
use radio_net::graph::{Graph, NodeId};
use radio_net::stats::{RoundOutcome, SimStats};
use radio_net::{NoCd, WithCd};

/// Per-node reception logs: `(round, message)` in delivery order.
type Receptions = Vec<Vec<(u64, u32)>>;

/// Per-node collision-noise rounds.
type NoiseLog = Vec<Vec<u64>>;

/// A node that transmits per a fixed script and records receptions.
struct Scripted {
    /// `plan[r]` = message to transmit in round `r` (if any).
    plan: Vec<Option<u32>>,
    received: Vec<(u64, u32)>,
    /// Rounds in which [`Node::collision_heard`] fired (only ever
    /// populated on a `WithCd` engine).
    noise: Vec<u64>,
    /// Whether [`Node::next_activity`] reads the plan (else the
    /// poll-every-round default).
    hinted: bool,
}

impl Node for Scripted {
    type Msg = u32;
    fn poll(&mut self, round: u64) -> Option<u32> {
        self.plan.get(round as usize).copied().flatten()
    }
    fn receive(&mut self, round: u64, msg: &u32) {
        self.received.push((round, *msg));
    }
    fn collision_heard(&mut self, round: u64) {
        self.noise.push(round);
    }
    fn next_activity(&self, round: u64) -> u64 {
        if !self.hinted {
            return round + 1;
        }
        // Next scripted transmission: intermediate polls return `None`
        // and change nothing, exactly the hint contract.
        ((round as usize + 1)..self.plan.len())
            .find(|&r| self.plan[r].is_some())
            .map_or(u64::MAX, |r| r as u64)
    }
}

/// Brute-force reference: replays the same script independently with a
/// dense O(n·Δ) per-round scan — the pre-optimization semantics the
/// active-set engine must reproduce bit for bit. Returns each node's
/// reception sequence, the per-round [`RoundOutcome`]s, and each
/// node's expected collision-noise rounds under the CD axiom (an awake
/// non-transmitting listener with two or more transmitting neighbors
/// hears noise; sleepers hear nothing — noise cannot wake).
fn reference(
    n: usize,
    edges: &[(usize, usize)],
    plans: &[Vec<Option<u32>>],
    awake0: &[bool],
    rounds: usize,
) -> (Receptions, Vec<RoundOutcome>, NoiseLog) {
    let mut adj = vec![vec![false; n]; n];
    for &(u, v) in edges {
        adj[u][v] = true;
        adj[v][u] = true;
    }
    let mut awake = awake0.to_vec();
    let mut received = vec![Vec::new(); n];
    let mut noise = vec![Vec::new(); n];
    let mut outcomes = Vec::with_capacity(rounds);
    for r in 0..rounds {
        // Awake nodes transmit per their script.
        let tx: Vec<Option<u32>> = (0..n)
            .map(|i| {
                if awake[i] {
                    plans[i].get(r).copied().flatten()
                } else {
                    None
                }
            })
            .collect();
        let mut outcome = RoundOutcome {
            round: r as u64,
            transmissions: tx.iter().flatten().count(),
            ..RoundOutcome::default()
        };
        let mut wakes = Vec::new();
        for v in 0..n {
            if tx[v].is_some() {
                continue; // half-duplex
            }
            let transmitters: Vec<usize> =
                (0..n).filter(|&u| adj[u][v] && tx[u].is_some()).collect();
            if transmitters.len() == 1 {
                received[v].push((r as u64, tx[transmitters[0]].unwrap()));
                outcome.receptions += 1;
                if !awake[v] {
                    wakes.push(v);
                }
            } else if transmitters.len() > 1 {
                outcome.collisions += 1;
                if awake[v] {
                    noise[v].push(r as u64);
                }
            }
        }
        for v in wakes {
            awake[v] = true;
        }
        outcomes.push(outcome);
    }
    (received, outcomes, noise)
}

/// Runs the engine on `(topo, plans, awake0)` under the chosen
/// [`CdModel`] and returns the per-round outcomes, per-node reception
/// logs, aggregate stats and per-node collision-noise logs.
fn run_engine_as<C: CdModel>(
    n: usize,
    edges: &[(usize, usize)],
    plans: &[Vec<Option<u32>>],
    awake0: &[bool],
    rounds: usize,
    hinted: bool,
) -> (Vec<RoundOutcome>, Receptions, SimStats, NoiseLog) {
    let graph = Graph::from_edges(n, edges.iter().copied()).expect("valid edges");
    let nodes: Vec<Scripted> = plans
        .iter()
        .map(|p| Scripted {
            plan: p.clone(),
            received: Vec::new(),
            noise: Vec::new(),
            hinted,
        })
        .collect();
    let awake_ids: Vec<NodeId> = (0..n).filter(|&i| awake0[i]).map(NodeId::new).collect();
    let mut engine = Engine::<Scripted, BuiltFaults, C>::with_topology(
        graph,
        nodes,
        awake_ids,
        BuiltFaults::default(),
        BuiltTopology::Static,
    )
    .expect("engine builds");
    let outcomes: Vec<RoundOutcome> = (0..rounds).map(|_| engine.step()).collect();
    let stats = *engine.stats();
    let received = (0..n)
        .map(|i| engine.node(NodeId::new(i)).received.clone())
        .collect();
    let noise = (0..n)
        .map(|i| engine.node(NodeId::new(i)).noise.clone())
        .collect();
    (outcomes, received, stats, noise)
}

/// The default no-CD engine, as every pre-CD caller builds it.
fn run_engine(
    n: usize,
    edges: &[(usize, usize)],
    plans: &[Vec<Option<u32>>],
    awake0: &[bool],
    rounds: usize,
    hinted: bool,
) -> (Vec<RoundOutcome>, Receptions, SimStats) {
    let (outcomes, received, stats, noise) =
        run_engine_as::<NoCd>(n, edges, plans, awake0, rounds, hinted);
    assert!(
        noise.iter().all(Vec::is_empty),
        "collision_heard must never fire on the NoCd path"
    );
    (outcomes, received, stats)
}

/// Deterministic pseudo-random per-node plans from a seed.
fn make_plans(n: usize, rounds: usize, plan_seed: u64) -> Vec<Vec<Option<u32>>> {
    let mut state = plan_seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    (0..n)
        .map(|_| {
            (0..rounds)
                .map(|_| {
                    let x = next();
                    (x % 3 == 0).then_some((x % 1000) as u32)
                })
                .collect()
        })
        .collect()
}

fn make_awake(n: usize, awake_seed: u64) -> Vec<bool> {
    let mut awake0: Vec<bool> = (0..n).map(|i| awake_seed >> (i % 64) & 1 == 1).collect();
    // At least one node awake so something can happen.
    awake0[0] = true;
    awake0
}

macro_rules! differential_check {
    ($topo:expr, $plan_seed:expr, $awake_seed:expr, $hinted:expr) => {{
        let (n, edges) = ($topo.n, $topo.edges);
        let rounds = 8usize;
        let plans = make_plans(n, rounds, $plan_seed);
        let awake0 = make_awake(n, $awake_seed);

        let (outcomes, received, stats) = run_engine(n, &edges, &plans, &awake0, rounds, $hinted);
        let (expect, expect_outcomes, _) = reference(n, &edges, &plans, &awake0, rounds);
        prop_assert_eq!(&outcomes, &expect_outcomes, "per-round outcomes diverge");
        for (i, want) in expect.iter().enumerate() {
            prop_assert_eq!(&received[i], want, "node {} receptions diverge", i);
        }

        // Aggregate stats must equal the sum of the per-round outcomes.
        prop_assert_eq!(stats.rounds, rounds as u64);
        prop_assert_eq!(
            stats.transmissions,
            expect_outcomes
                .iter()
                .map(|o| o.transmissions as u64)
                .sum::<u64>()
        );
        prop_assert_eq!(
            stats.receptions,
            expect_outcomes
                .iter()
                .map(|o| o.receptions as u64)
                .sum::<u64>()
        );
        prop_assert_eq!(
            stats.collisions,
            expect_outcomes
                .iter()
                .map(|o| o.collisions as u64)
                .sum::<u64>()
        );
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_matches_reference(
        topo in proptest::graph::edge_list(3..10),
        plan_seed in any::<u64>(),
        awake_seed in any::<u64>(),
    ) {
        // The edge-list strategy shrinks structurally (delete-vertex,
        // then delete-edge), so a divergence from the reference is
        // reported on a minimal topology.
        differential_check!(topo, plan_seed, awake_seed, false);
    }

    #[test]
    fn engine_matches_reference_across_word_boundary(
        topo in proptest::graph::edge_list(60..100),
        plan_seed in any::<u64>(),
        awake_seed in any::<u64>(),
    ) {
        // Node counts straddling (and not a multiple of) 64 exercise
        // the bitset planes' tail-word masking; the edge count is drawn
        // independently of n, so sparse samples include isolated nodes.
        differential_check!(topo, plan_seed, awake_seed, false);
    }

    #[test]
    fn engine_with_activity_hints_matches_reference(
        topo in proptest::graph::edge_list(3..80),
        plan_seed in any::<u64>(),
        awake_seed in any::<u64>(),
    ) {
        // Hinted scripts park between scripted transmissions; deliveries
        // must still match the always-polling reference exactly
        // (receptions void hints, collisions and silence must not). A
        // reception inside a park makes the next poll re-park to the
        // same scripted round, so the engine's reuse of a pending timer
        // entry is exercised too.
        differential_check!(topo, plan_seed, awake_seed, true);
    }

    #[test]
    fn cd_engine_is_bit_identical_to_the_nocd_engine(
        topo in proptest::graph::edge_list(3..80),
        plan_seed in any::<u64>(),
        awake_seed in any::<u64>(),
    ) {
        // The CD toggle is purely additive: collision-noise is an extra
        // informational channel, not part of the outcome partition. The
        // same script on `WithCd` must reproduce the `NoCd` engine's
        // round outcomes, reception logs and stats bit for bit, and its
        // noise log must equal the reference CD derivation exactly.
        let (n, edges) = (topo.n, topo.edges);
        let rounds = 8usize;
        let plans = make_plans(n, rounds, plan_seed);
        let awake0 = make_awake(n, awake_seed);

        let (_, _, expect_noise) = reference(n, &edges, &plans, &awake0, rounds);
        for hinted in [false, true] {
            let (outcomes, received, stats) =
                run_engine(n, &edges, &plans, &awake0, rounds, hinted);
            let (cd_outcomes, cd_received, cd_stats, cd_noise) =
                run_engine_as::<WithCd>(n, &edges, &plans, &awake0, rounds, hinted);
            prop_assert_eq!(&cd_outcomes, &outcomes, "outcomes diverge (hinted={})", hinted);
            prop_assert_eq!(&cd_received, &received, "receptions diverge (hinted={})", hinted);
            prop_assert_eq!(cd_stats, stats, "stats diverge (hinted={})", hinted);
            for (i, want) in expect_noise.iter().enumerate() {
                prop_assert_eq!(
                    &cd_noise[i], want,
                    "node {} noise log diverges (hinted={})", i, hinted
                );
            }
        }
    }
}
