//! End-to-end integration tests: the full four-stage protocol across
//! the topology zoo, workload shapes and seeds.

use radio_kbcast::kbcast::runner::{CodedProtocol, KbcastMeta, RunOptions, Workload};
use radio_kbcast::kbcast::session::{run_protocol, SessionReport};
use radio_kbcast::kbcast::Config;
use radio_kbcast::radio_net::topology::Topology;

type Report = SessionReport<KbcastMeta>;

/// One coded session (`None` = config from the graph).
fn run(topology: &Topology, workload: &Workload, config: Option<Config>, seed: u64) -> Report {
    let protocol = CodedProtocol {
        config,
        uncoded: false,
    };
    run_protocol(&protocol, topology, workload, seed, RunOptions::default()).expect("run executes")
}

fn assert_delivers(topology: &Topology, workload: &Workload, seed: u64) -> Report {
    let r = run(topology, workload, None, seed);
    assert!(
        r.success,
        "{topology} seed {seed}: delivered {:.3} in {} rounds",
        r.delivered_fraction, r.rounds_total
    );
    assert!((r.delivered_fraction - 1.0).abs() < 1e-9);
    let s = r.meta.stages;
    assert_eq!(
        s.leader + s.bfs + s.collect + s.disseminate,
        r.rounds_total,
        "stage breakdown must partition the run"
    );
    r
}

#[test]
fn topology_zoo_spread_workload() {
    let zoo: Vec<Topology> = vec![
        Topology::Path { n: 24 },
        Topology::Cycle { n: 24 },
        Topology::Star { n: 24 },
        Topology::Complete { n: 16 },
        Topology::Grid2d { rows: 5, cols: 5 },
        Topology::Torus { rows: 5, cols: 5 },
        Topology::Hypercube { d: 5 },
        Topology::BinaryTree { n: 31 },
        Topology::Dumbbell {
            clique: 10,
            bridge: 4,
        },
        Topology::Lollipop {
            clique: 10,
            tail: 8,
        },
        Topology::Caterpillar { spine: 8, legs: 2 },
        Topology::Gnp { n: 32, p: 0.2 },
        Topology::RandomTree { n: 32 },
        Topology::UnitDisk { n: 32, radius: 0.4 },
        Topology::RandomRegular { n: 24, d: 4 },
    ];
    for topo in zoo {
        let n = topo.build(0).unwrap().len();
        let w = Workload::random(n, 2 * n, 5);
        assert_delivers(&topo, &w, 5);
    }
}

#[test]
fn workload_shapes() {
    let topo = Topology::Grid2d { rows: 5, cols: 6 };
    let n = 30;
    for (name, w) in [
        ("single source at corner", Workload::single_source(n, 0, 25)),
        ("single source center", Workload::single_source(n, 14, 25)),
        ("round robin", Workload::round_robin(n, 45)),
        ("one packet everywhere", Workload::round_robin(n, n)),
        ("single packet total", Workload::single_source(n, 7, 1)),
        ("random placement", Workload::random(n, 40, 9)),
    ] {
        let r = assert_delivers(&topo, &w, 2);
        assert_eq!(r.k, w.k(), "{name}");
    }
}

#[test]
fn many_seeds_on_one_family() {
    let topo = Topology::Gnp { n: 48, p: 0.15 };
    for seed in 0..10 {
        let w = Workload::random(48, 96, seed);
        assert_delivers(&topo, &w, seed);
    }
}

#[test]
fn determinism_same_seed_same_outcome() {
    let topo = Topology::Gnp { n: 40, p: 0.16 };
    let w = Workload::random(40, 60, 4);
    let a = run(&topo, &w, None, 4);
    let b = run(&topo, &w, None, 4);
    assert_eq!(a.rounds_total, b.rounds_total);
    assert_eq!(a.meta.stages, b.meta.stages);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.meta.collection_phases, b.meta.collection_phases);
}

#[test]
fn different_seeds_differ() {
    let topo = Topology::Grid2d { rows: 6, cols: 6 };
    let w = Workload::random(36, 50, 0);
    let rounds: Vec<u64> = (0..4)
        .map(|seed| run(&topo, &w, None, seed).rounds_total)
        .collect();
    assert!(
        rounds.windows(2).any(|w| w[0] != w[1]),
        "independent seeds should not all coincide: {rounds:?}"
    );
}

#[test]
fn loose_parameter_bounds_still_work() {
    // Nodes only know upper bounds; double everything.
    let topo = Topology::Grid2d { rows: 4, cols: 6 };
    let g = topo.build(0).unwrap();
    let mut cfg = Config::for_network(2 * g.len(), 2 * g.diameter().unwrap(), 2 * g.max_degree());
    cfg.id_bits = 8; // ids still fit
    let w = Workload::random(24, 30, 1);
    let r = run(&topo, &w, Some(cfg), 1);
    assert!(r.success, "{r:?}");
}

#[test]
fn large_k_multiple_estimate_doublings() {
    let topo = Topology::Gnp { n: 24, p: 0.25 };
    let g = topo.build(2).unwrap();
    let cfg = Config::for_network(g.len(), g.diameter().unwrap(), g.max_degree());
    let k = 40 * cfg.initial_estimate();
    let w = Workload::round_robin(24, k);
    let r = assert_delivers(&topo, &w, 2);
    assert!(
        r.meta.collection_phases >= 1,
        "k = {k} must force at least one alarm/doubling"
    );
}

#[test]
fn single_node_and_tiny_networks() {
    assert_delivers(
        &Topology::Path { n: 1 },
        &Workload::single_source(1, 0, 3),
        0,
    );
    assert_delivers(&Topology::Path { n: 2 }, &Workload::round_robin(2, 4), 1);
    assert_delivers(
        &Topology::Path { n: 3 },
        &Workload::single_source(3, 2, 2),
        2,
    );
    assert_delivers(
        &Topology::Complete { n: 3 },
        &Workload::round_robin(3, 6),
        3,
    );
}

#[test]
fn tx_counts_cover_every_stage() {
    let topo = Topology::Gnp { n: 32, p: 0.2 };
    let w = Workload::random(32, 48, 3);
    let r = run(&topo, &w, None, 3);
    assert!(r.success);
    let t = r.meta.tx_by_type;
    assert!(t.probe > 0, "stage 1 transmitted");
    assert!(t.bfs > 0, "stage 2 transmitted");
    assert!(t.data > 0, "stage 3 data flowed");
    assert!(t.ack > 0, "stage 3 acks flowed");
    assert!(t.coded > 0, "stage 4 coded rows flowed");
    assert_eq!(
        t.total(),
        r.stats.transmissions,
        "counters match the engine"
    );
    // k < x0 here, so the single collection phase is alarm-free.
    assert_eq!(t.alarm, 0, "no alarms expected for small k");
}

#[test]
fn empty_workload_is_trivial() {
    let r = run(
        &Topology::Star { n: 8 },
        &Workload::new(vec![Vec::new(); 8]),
        None,
        0,
    );
    assert!(r.success);
    assert_eq!(r.rounds_total, 0);
    assert_eq!(r.k, 0);
}

#[test]
fn variable_payload_sizes() {
    // Payloads of wildly different sizes within one broadcast.
    let n = 16;
    let payloads: Vec<Vec<Vec<u8>>> = (0..n)
        .map(|i| {
            if i % 3 == 0 {
                vec![vec![i as u8; 1 + (i * 17) % 120]]
            } else {
                Vec::new()
            }
        })
        .collect();
    let w = Workload::new(payloads);
    assert_delivers(&Topology::Cycle { n }, &w, 6);
}
