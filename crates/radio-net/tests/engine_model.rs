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
//! * reactive nodes — scripts whose receptions schedule replies a few
//!   rounds later, with a hint that reads the schedule, so a parked
//!   node's re-asked hint is shortened, kept or ended (from `u64::MAX`)
//!   by a reception; checked against a dense reference that polls every
//!   awake node every round;
//! * the CD differential — the same script run on `Engine<_, _, NoCd>`
//!   and `Engine<_, _, WithCd>` must produce bit-identical outcomes,
//!   receptions and stats (collision-noise is informational only), and
//!   the `WithCd` noise log must match the reference derivation
//!   "awake non-transmitting listener with >= 2 transmitting
//!   neighbors" while the `NoCd` hook never fires at all.

use std::collections::BTreeMap;

use proptest::prelude::*;
use radio_net::dyntopo::BuiltTopology;
use radio_net::engine::{CdModel, Engine, Node};
use radio_net::faults::BuiltFaults;
use radio_net::graph::{Graph, NodeId};
use radio_net::message::MessageSize;
use radio_net::session::RoundEvents;
use radio_net::stats::SimStats;
use radio_net::{NoCd, WithCd};

/// Bits a round's transmissions put on the air.
fn bits_of(tx: &[Option<u32>]) -> u64 {
    tx.iter().flatten().map(|m| m.size_bits() as u64).sum()
}

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
/// reception sequence, the per-round [`RoundEvents`]s, and each
/// node's expected collision-noise rounds under the CD axiom (an awake
/// non-transmitting listener with two or more transmitting neighbors
/// hears noise; sleepers hear nothing — noise cannot wake).
fn reference(
    n: usize,
    edges: &[(usize, usize)],
    plans: &[Vec<Option<u32>>],
    awake0: &[bool],
    rounds: usize,
) -> (Receptions, Vec<RoundEvents>, NoiseLog) {
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
        let mut outcome = RoundEvents {
            round: r as u64,
            transmissions: tx.iter().flatten().count(),
            bits_transmitted: bits_of(&tx),
            ..RoundEvents::default()
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
                    outcome.wakeups += 1;
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
) -> (Vec<RoundEvents>, Receptions, SimStats, NoiseLog) {
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
    let outcomes: Vec<RoundEvents> = (0..rounds).map(|_| engine.step()).collect();
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
) -> (Vec<RoundEvents>, Receptions, SimStats) {
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

/// How a reception moved a parked [`Reactive`] node's hint.
#[derive(Clone, Copy, Debug, Default)]
struct HintMoves {
    /// The reply comes before the round the node was parked until.
    shortened: u64,
    /// The node stays parked until the same round.
    kept: u64,
    /// A node parked with `u64::MAX` gets a finite hint.
    from_max: u64,
}

/// A scripted node whose receptions schedule replies: receiving `msg`
/// in round `r` queues `msg + 1` for round `r + 1 + msg % 4` (unless
/// that round already holds a reply). Its hint, when `hinted`, is the
/// first scripted or queued transmission after the round.
#[derive(Clone)]
struct Reactive {
    plan: Vec<Option<u32>>,
    replies: BTreeMap<u64, u32>,
    received: Vec<(u64, u32)>,
    hinted: bool,
    last_poll: Option<u64>,
    moves: HintMoves,
}

impl Reactive {
    fn new(plan: Vec<Option<u32>>, hinted: bool) -> Self {
        Reactive {
            plan,
            replies: BTreeMap::new(),
            received: Vec::new(),
            hinted,
            last_poll: None,
            moves: HintMoves::default(),
        }
    }

    fn hint(&self, round: u64) -> u64 {
        let planned = ((round as usize + 1)..self.plan.len())
            .find(|&r| self.plan[r].is_some())
            .map_or(u64::MAX, |r| r as u64);
        let reply = self
            .replies
            .range(round + 1..)
            .next()
            .map_or(u64::MAX, |(&r, _)| r);
        planned.min(reply)
    }
}

impl Node for Reactive {
    type Msg = u32;
    fn poll(&mut self, round: u64) -> Option<u32> {
        self.last_poll = Some(round);
        let reply = self.replies.remove(&round);
        self.plan.get(round as usize).copied().flatten().or(reply)
    }
    fn receive(&mut self, round: u64, msg: &u32) {
        // A node polled before but not in this round is parked (the
        // engine polls every active node every round).
        let parked = self.hinted && self.last_poll.is_some_and(|p| p < round);
        let before = self.hint(round);
        self.received.push((round, *msg));
        self.replies
            .entry(round + 1 + u64::from(msg % 4))
            .or_insert(msg + 1);
        let after = self.hint(round);
        if parked {
            if before == u64::MAX && after != u64::MAX {
                self.moves.from_max += 1;
            } else if after < before {
                self.moves.shortened += 1;
            } else {
                self.moves.kept += 1;
            }
        }
    }
    fn next_activity(&self, round: u64) -> u64 {
        if self.hinted {
            self.hint(round)
        } else {
            round + 1
        }
    }
}

/// The always-polling reference for [`Reactive`] nodes: every awake
/// node is polled every round (by a dense O(n²) scan, without the
/// engine), receptions follow "exactly one transmitting neighbor", and
/// receivers wake.
fn reactive_reference(
    n: usize,
    edges: &[(usize, usize)],
    plans: &[Vec<Option<u32>>],
    awake0: &[bool],
    rounds: usize,
) -> (Receptions, Vec<RoundEvents>) {
    let mut adj = vec![vec![false; n]; n];
    for &(u, v) in edges {
        adj[u][v] = true;
        adj[v][u] = true;
    }
    let mut nodes: Vec<Reactive> = plans
        .iter()
        .map(|p| Reactive::new(p.clone(), false))
        .collect();
    let mut awake = awake0.to_vec();
    let mut outcomes = Vec::with_capacity(rounds);
    for r in 0..rounds as u64 {
        let tx: Vec<Option<u32>> = (0..n)
            .map(|i| if awake[i] { nodes[i].poll(r) } else { None })
            .collect();
        let mut outcome = RoundEvents {
            round: r,
            transmissions: tx.iter().flatten().count(),
            bits_transmitted: bits_of(&tx),
            ..RoundEvents::default()
        };
        for v in 0..n {
            if tx[v].is_some() {
                continue;
            }
            let heard: Vec<u32> = (0..n)
                .filter(|&u| adj[u][v])
                .filter_map(|u| tx[u])
                .collect();
            match heard.as_slice() {
                [msg] => {
                    nodes[v].receive(r, msg);
                    outcome.receptions += 1;
                    if !awake[v] {
                        awake[v] = true;
                        outcome.wakeups += 1;
                    }
                }
                [] => {}
                _ => outcome.collisions += 1,
            }
        }
        outcomes.push(outcome);
    }
    let received = nodes.into_iter().map(|nd| nd.received).collect();
    (received, outcomes)
}

/// Runs [`Reactive`] nodes on the engine under the chosen [`CdModel`]:
/// per-round outcomes, reception logs and the summed hint moves.
fn run_reactive<C: CdModel>(
    n: usize,
    edges: &[(usize, usize)],
    plans: &[Vec<Option<u32>>],
    awake0: &[bool],
    rounds: usize,
    hinted: bool,
) -> (Vec<RoundEvents>, Receptions, HintMoves) {
    let graph = Graph::from_edges(n, edges.iter().copied()).expect("valid edges");
    let nodes: Vec<Reactive> = plans
        .iter()
        .map(|p| Reactive::new(p.clone(), hinted))
        .collect();
    let awake_ids: Vec<NodeId> = (0..n).filter(|&i| awake0[i]).map(NodeId::new).collect();
    let mut engine = Engine::<Reactive, BuiltFaults, C>::with_topology(
        graph,
        nodes,
        awake_ids,
        BuiltFaults::default(),
        BuiltTopology::Static,
    )
    .expect("engine builds");
    let outcomes: Vec<RoundEvents> = (0..rounds).map(|_| engine.step()).collect();
    let received = engine
        .nodes()
        .iter()
        .map(|nd| nd.received.clone())
        .collect();
    let mut moves = HintMoves::default();
    for nd in engine.nodes() {
        moves.shortened += nd.moves.shortened;
        moves.kept += nd.moves.kept;
        moves.from_max += nd.moves.from_max;
    }
    (outcomes, received, moves)
}

/// Plans for [`Reactive`] runs: the first half of the rounds scripted
/// sparsely, the rest left to replies.
fn reactive_plans(n: usize, rounds: usize, plan_seed: u64) -> Vec<Vec<Option<u32>>> {
    make_plans(n, rounds, plan_seed)
        .into_iter()
        .map(|plan| {
            plan.into_iter()
                .enumerate()
                .map(|(r, m)| m.filter(|&m| r < rounds / 2 && m % 2 == 0))
                .collect()
        })
        .collect()
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
    fn reactive_hints_match_the_always_polling_reference(
        topo in proptest::graph::edge_list(3..80),
        plan_seed in any::<u64>(),
        awake_seed in any::<u64>(),
    ) {
        // Receptions schedule replies, so a parked node's hint moves on
        // receptions; the engine re-asks it and must still poll exactly
        // where the dense reference transmits. The CD engine takes the
        // per-listener path and re-asks after noise as well.
        let (n, edges) = (topo.n, topo.edges);
        let rounds = 24usize;
        let plans = reactive_plans(n, rounds, plan_seed);
        let awake0 = make_awake(n, awake_seed);
        let (expect, expect_outcomes) = reactive_reference(n, &edges, &plans, &awake0, rounds);
        let (outcomes, received, _) =
            run_reactive::<NoCd>(n, &edges, &plans, &awake0, rounds, true);
        prop_assert_eq!(&outcomes, &expect_outcomes, "per-round outcomes diverge");
        prop_assert_eq!(&received, &expect, "receptions diverge");
        let (cd_outcomes, cd_received, _) =
            run_reactive::<WithCd>(n, &edges, &plans, &awake0, rounds, true);
        prop_assert_eq!(&cd_outcomes, &expect_outcomes, "CD outcomes diverge");
        prop_assert_eq!(&cd_received, &expect, "CD receptions diverge");
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

/// The reactive differential reaches every way a reception can move a
/// parked node's hint: shortened, kept, and ended from `u64::MAX`.
#[test]
fn reactive_receptions_shorten_keep_and_end_parks() {
    let n = 12;
    // A ring with two chords: sparse enough for unique receptions.
    let mut edges: Vec<(usize, usize)> = (0..n)
        .map(|i| (i.min((i + 1) % n), i.max((i + 1) % n)))
        .collect();
    edges.extend([(0, 6), (3, 9)]);
    let rounds = 48;
    let mut total = HintMoves::default();
    for seed in 0..16u64 {
        let plans = reactive_plans(n, rounds, seed);
        let awake0 = make_awake(n, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let (expect, expect_outcomes) = reactive_reference(n, &edges, &plans, &awake0, rounds);
        let (outcomes, received, moves) =
            run_reactive::<NoCd>(n, &edges, &plans, &awake0, rounds, true);
        assert_eq!(outcomes, expect_outcomes, "seed {seed}: outcomes diverge");
        assert_eq!(received, expect, "seed {seed}: receptions diverge");
        total.shortened += moves.shortened;
        total.kept += moves.kept;
        total.from_max += moves.from_max;
    }
    assert!(
        total.shortened > 0 && total.kept > 0 && total.from_max > 0,
        "{total:?}"
    );
}
