//! Fault × churn × verifier conformance: the online model checker and
//! stage invariants must accept every execution the engine can
//! actually produce — clean, lossy, under all six fault families, and
//! on all three dynamic-topology models — with zero violations. A false positive here would make `--verify`
//! useless for experiments, so this suite is the checker's own
//! regression net. All seeds are pinned; any failure reproduces
//! bit-for-bit.

use radio_kbcast::kbcast::baseline::BiiProtocol;
use radio_kbcast::kbcast::dynamic::{Arrival, DynamicProtocol};
use radio_kbcast::kbcast::ghk::GhkProtocol;
use radio_kbcast::kbcast::runner::{CodedProtocol, RunOptions, Workload};
use radio_kbcast::kbcast::session::{run_protocol, run_protocol_on_graph};
use radio_kbcast::radio_net::dyntopo::{BuiltTopology, ChurnSpec, PartitionWindow};
use radio_kbcast::radio_net::engine::{Engine, Node, WithCd};
use radio_kbcast::radio_net::error::Error;
use radio_kbcast::radio_net::faults::FaultSpec;
use radio_kbcast::radio_net::graph::{Graph, NodeId};
use radio_kbcast::radio_net::session::{NoopObserver, SessionControl};
use radio_kbcast::radio_net::topology::Topology;
use radio_kbcast::radio_net::verify::{ModelChecker, Verified, VerifyStack};

fn verify_opts() -> RunOptions {
    RunOptions {
        verify: true,
        ..RunOptions::default()
    }
}

/// The six fault families of `radio_net::faults`, one representative
/// spec each (mirrors E17's quick grid).
const FAULT_FAMILIES: [&str; 6] = [
    "none",
    "uniform:rate=0.15",
    "ge:p_bad=0.01,p_good=0.1,loss_good=0,loss_bad=0.9",
    "crash:frac=0.25,from=0,until=2000,down=1000",
    "jam:budget=200",
    "wakeup:rate=0.5",
];

/// Runs one verified coded session under `spec`; the session may fail
/// to deliver (faults can legitimately prevent completion) but the
/// checkers must stay silent.
fn run_coded_verified(spec: &str, seed: u64) {
    let fault: FaultSpec = spec.parse().expect("family spec parses");
    let topo = Topology::Grid2d { rows: 4, cols: 4 };
    let graph = topo.build(seed).expect("topology builds");
    let workload = Workload::random(16, 8, seed);
    let result = run_protocol_on_graph(
        &CodedProtocol::default(),
        graph,
        &workload,
        seed,
        RunOptions {
            faults: fault,
            ..verify_opts()
        },
    );
    match result {
        Ok(_) => {}
        Err(Error::VerificationFailed { details, .. }) => {
            panic!("checker false positive under '{spec}' seed {seed}:\n{details}")
        }
        Err(e) => panic!("session error under '{spec}' seed {seed}: {e}"),
    }
}

#[test]
fn model_checker_accepts_all_fault_families_coded() {
    for spec in FAULT_FAMILIES {
        for seed in 0..3 {
            run_coded_verified(spec, seed);
        }
    }
}

#[test]
fn model_checker_accepts_composed_faults() {
    run_coded_verified("uniform:rate=0.05+crash:frac=0.1,from=0,until=1500", 1);
    run_coded_verified("jam:budget=100+wakeup:rate=0.2", 2);
}

/// Lossy drops through the `uniform:` model, the engine's one loss
/// channel.
#[test]
fn model_checker_accepts_legacy_loss_path() {
    let graph = Topology::Grid2d { rows: 4, cols: 4 }
        .build(3)
        .expect("topology builds");
    let workload = Workload::random(16, 8, 3);
    let r = run_protocol_on_graph(
        &CodedProtocol::default(),
        graph,
        &workload,
        3,
        RunOptions {
            faults: "uniform:rate=0.1".parse().expect("rate is valid"),
            ..verify_opts()
        },
    )
    .expect("lossy verified run must not trip the checkers");
    assert!(r.stats.dropped > 0, "loss actually sampled");
}

#[test]
fn model_checker_accepts_bii_baseline() {
    for spec in ["none", "uniform:rate=0.15", "jam:budget=200"] {
        let fault: FaultSpec = spec.parse().expect("family spec parses");
        let topo = Topology::Grid2d { rows: 4, cols: 4 };
        let graph = topo.build(7).expect("topology builds");
        let workload = Workload::random(16, 8, 7);
        run_protocol_on_graph(
            &BiiProtocol::default(),
            graph,
            &workload,
            7,
            RunOptions {
                faults: fault,
                ..verify_opts()
            },
        )
        .unwrap_or_else(|e| panic!("BII verified run under '{spec}': {e}"));
    }
}

/// Dynamic arrivals exercise the external-wake path of the model
/// checker (`Engine::wake` between rounds must not be mistaken for a
/// radio reception).
#[test]
fn model_checker_accepts_dynamic_external_wakes() {
    let topo = Topology::Grid2d { rows: 4, cols: 4 };
    let graph = topo.build(5).expect("topology builds");
    let n = graph.len();
    let mut arrivals: Vec<Arrival> = (0..3)
        .map(|j| Arrival {
            round: 0,
            node: (j * 5) % n,
            payload: vec![0, j as u8],
        })
        .collect();
    arrivals.push(Arrival {
        round: 1200,
        node: 11,
        payload: vec![1, 0],
    });
    let protocol = DynamicProtocol {
        arrivals: &arrivals,
        config: None,
        horizon: 150_000,
    };
    let workload = protocol.initial_workload(n);
    run_protocol_on_graph(&protocol, graph, &workload, 5, verify_opts())
        .expect("dynamic verified run must not trip the model checker");
}

#[test]
fn degenerate_k0_broadcast_verifies_trivially() {
    let topo = Topology::Grid2d { rows: 3, cols: 3 };
    let workload = Workload::new(vec![Vec::new(); 9]);
    let report = run_protocol(
        &CodedProtocol::default(),
        &topo,
        &workload,
        0,
        verify_opts(),
    )
    .expect("empty broadcast runs");
    assert!(report.success);
    assert_eq!(report.rounds_total, 0);
}

#[test]
fn degenerate_k1_broadcast_verifies() {
    let topo = Topology::Path { n: 5 };
    let workload = Workload::single_source(5, 2, 1);
    let report = run_protocol(
        &CodedProtocol::default(),
        &topo,
        &workload,
        4,
        verify_opts(),
    )
    .expect("single-packet verified run");
    assert!(report.success);
    assert_eq!(report.k, 1);
}

/// GHK runs on the `WithCd` engine, so the checker's CD axiom is live:
/// every fault family must still verify with zero violations (jamming
/// in particular now has to reconcile with the noise log, and crashes
/// with the masked-transmitter derivation).
#[test]
fn model_checker_accepts_all_fault_families_ghk_with_cd() {
    for spec in FAULT_FAMILIES {
        for seed in 0..3 {
            let fault: FaultSpec = spec.parse().expect("family spec parses");
            let topo = Topology::Grid2d { rows: 4, cols: 4 };
            let graph = topo.build(seed).expect("topology builds");
            let workload = Workload::random(16, 8, seed);
            let result = run_protocol_on_graph(
                &GhkProtocol::default(),
                graph,
                &workload,
                seed,
                RunOptions {
                    faults: fault,
                    ..verify_opts()
                },
            );
            match result {
                Ok(_) => {}
                Err(Error::VerificationFailed { details, .. }) => {
                    panic!("CD checker false positive under '{spec}' seed {seed}:\n{details}")
                }
                Err(e) => panic!("ghk session error under '{spec}' seed {seed}: {e}"),
            }
        }
    }
}

/// A node that transmits per a fixed per-round script and logs what the
/// CD channel told it (receptions and collision-noise rounds).
struct CdScripted {
    plan: Vec<bool>,
    rx_rounds: Vec<u64>,
    noise_rounds: Vec<u64>,
}

impl Node for CdScripted {
    type Msg = u32;
    fn poll(&mut self, round: u64) -> Option<u32> {
        self.plan
            .get(round as usize)
            .copied()
            .unwrap_or(false)
            .then_some(7)
    }
    fn receive(&mut self, round: u64, _msg: &u32) {
        self.rx_rounds.push(round);
    }
    fn collision_heard(&mut self, round: u64) {
        self.noise_rounds.push(round);
    }
}

/// CD × faults interaction table: tiny pinned scenarios where the CD
/// channel's reading is known by hand, each run on a `WithCd` engine
/// with the CD-aware model checker attached. The engine must produce
/// exactly the expected noise/reception rounds at the observed
/// listener AND the checker's independent re-derivation must agree
/// (zero violations) — jammed rounds read as collision-noise to CD
/// listeners, and crashed transmitters must not count toward the
/// collision derivation.
#[test]
fn cd_fault_interactions_match_the_checker() {
    struct Case {
        name: &'static str,
        graph: fn() -> Graph,
        /// `plans[v][r]` = does node `v` transmit in round `r`.
        plans: &'static [&'static [bool]],
        fault: &'static str,
        listener: usize,
        expect_noise: &'static [u64],
        expect_rx: &'static [u64],
    }
    const T: bool = true;
    const F: bool = false;
    let cases = [
        Case {
            // Baseline: two leaves collide at the hub every round.
            name: "collision reads as noise",
            graph: || radio_kbcast::radio_net::topology::star(3).expect("star builds"),
            plans: &[&[F; 4], &[T; 4], &[T; 4]],
            fault: "none",
            listener: 0,
            expect_noise: &[0, 1, 2, 3],
            expect_rx: &[],
        },
        Case {
            // A single transmitter is a clean reception — never noise.
            name: "unique transmitter is not noise",
            graph: || radio_kbcast::radio_net::topology::path(2).expect("path builds"),
            plans: &[&[T; 4], &[F; 4]],
            fault: "none",
            listener: 1,
            expect_noise: &[],
            expect_rx: &[0, 1, 2, 3],
        },
        Case {
            // The jammer's budget covers rounds 0-1: to a CD listener a
            // jammed round is indistinguishable from a collision, then
            // clean receptions resume.
            name: "jammed rounds read as collision-noise",
            graph: || radio_kbcast::radio_net::topology::path(2).expect("path builds"),
            plans: &[&[T; 4], &[F; 4]],
            fault: "jam:budget=2",
            listener: 1,
            expect_noise: &[0, 1],
            expect_rx: &[2, 3],
        },
        Case {
            // Both leaves' scripts transmit every round, but everyone
            // is fail-stop from round 1: crashed transmitters must not
            // count toward the collision derivation, so the hub hears
            // noise in round 0 only (and, crashed itself, is deaf to
            // everything after).
            name: "crashed transmitters don't count toward collisions",
            graph: || radio_kbcast::radio_net::topology::star(3).expect("star builds"),
            plans: &[&[F; 4], &[T; 4], &[T; 4]],
            fault: "crash:frac=1,from=1,until=2,down=100",
            listener: 0,
            expect_noise: &[0],
            expect_rx: &[],
        },
    ];

    for case in &cases {
        let graph = (case.graph)();
        let n = graph.len();
        let nodes: Vec<CdScripted> = case
            .plans
            .iter()
            .map(|p| CdScripted {
                plan: p.to_vec(),
                rx_rounds: Vec::new(),
                noise_rounds: Vec::new(),
            })
            .collect();
        assert_eq!(nodes.len(), n, "case '{}' plan count", case.name);
        let awake: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let fault: FaultSpec = case.fault.parse().expect("case fault parses");
        let faults = fault.build(n, 0).expect("case fault validates");

        let mut stack = VerifyStack::new();
        stack.push(Box::new(ModelChecker::new_with_cd(
            graph.clone(),
            awake.iter().copied(),
            true,
        )));
        let mut engine = Engine::<CdScripted, _, WithCd>::with_topology(
            graph,
            nodes,
            awake,
            faults,
            BuiltTopology::Static,
        )
        .expect("engine builds");
        let mut obs = NoopObserver;
        let mut verified = Verified {
            inner: &mut obs,
            stack: &mut stack,
        };
        let end = engine.run_session_with(4, &mut verified, |_| SessionControl::Continue);
        stack.session_end(engine.nodes(), &end);

        let violations: Vec<String> = stack
            .violations()
            .map(|(name, v)| format!("[{name}] {v}"))
            .collect();
        assert!(
            violations.is_empty(),
            "case '{}': checker disagreed with the engine:\n{}",
            case.name,
            violations.join("\n")
        );
        let listener = engine.node(NodeId::new(case.listener));
        assert_eq!(
            listener.noise_rounds, case.expect_noise,
            "case '{}': noise rounds",
            case.name
        );
        assert_eq!(
            listener.rx_rounds, case.expect_rx,
            "case '{}': reception rounds",
            case.name
        );
    }
}

/// The three dynamic-topology families, one representative spec each
/// (mirrors E22's quick grid).
fn churn_models() -> [ChurnSpec; 3] {
    [
        ChurnSpec::Edge {
            rho: 0.03,
            heal: 0.2,
        },
        ChurnSpec::Waypoint {
            radius: 0.45,
            speed: 0.01,
        },
        ChurnSpec::Partition(PartitionWindow {
            split_at: 50,
            heal_at: 200,
            period: Some(400),
        }),
    ]
}

/// Churn × fault × CD conformance: every combination of dynamic
/// topology, fault family and channel model must verify with zero
/// violations — the churn-aware checker replica has to track the
/// engine's graph exactly even while faults rewrite outcomes on top of
/// it. Sessions may fail to deliver (a partition can outlast the cap);
/// the checkers must stay silent regardless.
#[test]
fn model_checker_accepts_churn_fault_cd_combinations() {
    let fault_specs = ["none", "uniform:rate=0.15", "jam:budget=200"];
    for churn in churn_models() {
        for spec in fault_specs {
            for seed in 0..2 {
                let fault: FaultSpec = spec.parse().expect("family spec parses");
                let topo = Topology::Grid2d { rows: 4, cols: 4 };
                let graph = topo.build(seed).expect("topology builds");
                let workload = Workload::random(16, 6, seed);
                let opts = RunOptions {
                    // Bound the partition-split sessions: conformance
                    // is about violations, not delivery.
                    max_rounds: Some(30_000),
                    churn,
                    faults: fault,
                    ..verify_opts()
                };
                // No-CD channel: the coded protocol.
                match run_protocol_on_graph(
                    &CodedProtocol::default(),
                    graph.clone(),
                    &workload,
                    seed,
                    opts,
                ) {
                    Ok(_) => {}
                    Err(Error::VerificationFailed { details, .. }) => panic!(
                        "churn checker false positive: coded under '{churn}' + '{spec}' \
                         seed {seed}:\n{details}"
                    ),
                    Err(e) => panic!("coded session error under '{churn}' + '{spec}': {e}"),
                }
                // CD channel: GHK — the CD axiom must reconcile noise
                // against the *churned* graph's transmitter sets.
                match run_protocol_on_graph(&GhkProtocol::default(), graph, &workload, seed, opts) {
                    Ok(_) => {}
                    Err(Error::VerificationFailed { details, .. }) => panic!(
                        "churn checker false positive: ghk under '{churn}' + '{spec}' \
                         seed {seed}:\n{details}"
                    ),
                    Err(e) => panic!("ghk session error under '{churn}' + '{spec}': {e}"),
                }
            }
        }
    }
}

/// Churn composes with the `uniform:` loss model too — the checker
/// sees drops on edges of the *current* snapshot.
#[test]
fn model_checker_accepts_churn_with_legacy_loss() {
    let opts = RunOptions {
        max_rounds: Some(30_000),
        churn: ChurnSpec::Edge {
            rho: 0.02,
            heal: 0.25,
        },
        faults: "uniform:rate=0.1".parse().expect("rate is valid"),
        ..verify_opts()
    };
    let graph = Topology::Grid2d { rows: 4, cols: 4 }
        .build(3)
        .expect("topology builds");
    let workload = Workload::random(16, 6, 3);
    let r = run_protocol_on_graph(&CodedProtocol::default(), graph, &workload, 3, opts)
        .expect("lossy churned verified run must not trip the checkers");
    assert!(r.stats.dropped > 0, "loss actually sampled");
}

/// Seed-pinned spot checks on larger random topologies: the exact
/// configurations the E13 w.h.p. harness sweeps, frozen here so a
/// checker or engine regression is caught by `cargo test` without
/// running the experiment binaries.
#[test]
fn pinned_seeds_on_random_topologies_verify() {
    for (topo, k, seed) in [
        (Topology::Gnp { n: 64, p: 0.13 }, 32, 0),
        (Topology::RandomTree { n: 32 }, 16, 1),
        (Topology::UnitDisk { n: 32, radius: 0.4 }, 16, 2),
    ] {
        let workload = Workload::random(
            match topo {
                Topology::Gnp { n, .. }
                | Topology::RandomTree { n }
                | Topology::UnitDisk { n, .. } => n,
                _ => unreachable!(),
            },
            k,
            seed,
        );
        run_protocol(
            &CodedProtocol::default(),
            &topo,
            &workload,
            seed,
            verify_opts(),
        )
        .unwrap_or_else(|e| panic!("pinned {topo} seed {seed}: {e}"));
    }
}
