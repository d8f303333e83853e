//! Pins the session driver to the original semantics: `run_protocol`
//! with the coded and BII protocols must produce reports bit-identical
//! to a hand-rolled engine drive that replicates the original post-hoc
//! computation (fixed seeds, every report field). Also covers the
//! `RunOptions` and workload validation and round-cap contracts (the
//! same error with verification on or off), and loss injection through
//! the `UniformLoss` fault model.

use radio_kbcast::kbcast::baseline::{BiiConfig, BiiNode, BiiProtocol};
use radio_kbcast::kbcast::dynamic::{run_streaming, Arrival};
use radio_kbcast::kbcast::packet::MAX_PAYLOAD_BYTES;
use radio_kbcast::kbcast::runner::{
    round_cap, CodedProtocol, KbcastMeta, RunOptions, StageObserver, StageRounds, Workload,
};
use radio_kbcast::kbcast::session::{
    run_protocol, run_protocol_on_graph, BroadcastProtocol, NetParams, SessionReport,
};
use radio_kbcast::kbcast::{Config, GhkConfig, GhkProtocol, KbcastNode, PacketKey};
use radio_kbcast::protocols::decay::Decay;
use radio_kbcast::radio_net::engine::Engine;
use radio_kbcast::radio_net::error::Error;
use radio_kbcast::radio_net::faults::{FaultSpec, UniformLoss};
use radio_kbcast::radio_net::graph::NodeId;
use radio_kbcast::radio_net::rng;
use radio_kbcast::radio_net::topology::Topology;
use radio_kbcast::radio_net::{NoCd, NoopObserver, SessionControl, SessionEnd};

/// A coded-protocol session through the driver.
fn coded(
    topology: &Topology,
    w: &Workload,
    seed: u64,
    opts: RunOptions,
) -> SessionReport<KbcastMeta> {
    run_protocol(&CodedProtocol::default(), topology, w, seed, opts).unwrap()
}

/// The original coded-protocol runner, verbatim: drive the engine with
/// `run_until_all_done` and recover success, stages and phases by
/// post-hoc scans over the final node states.
fn legacy_coded_run(topology: &Topology, k: usize, seed: u64) -> SessionReport<KbcastMeta> {
    let g = topology.build(seed).unwrap();
    let n = g.len();
    let diameter = g.diameter().unwrap_or(0);
    let max_degree = g.max_degree();
    let cfg = Config::for_network(n, diameter, max_degree);
    let w = Workload::random(n, k, seed);

    let per_node: Vec<_> = (0..n).map(|i| w.packets_of(i)).collect();
    let mut expected: Vec<_> = per_node.iter().flatten().cloned().collect();
    expected.sort_by_key(|p| p.key);

    let awake: Vec<NodeId> = per_node
        .iter()
        .enumerate()
        .filter(|(_, pkts)| !pkts.is_empty())
        .map(|(i, _)| NodeId::new(i))
        .collect();
    let nodes: Vec<KbcastNode> = per_node
        .into_iter()
        .enumerate()
        .map(|(i, pkts)| KbcastNode::new(cfg, i as u64, pkts, rng::stream(seed, i as u64)))
        .collect();
    let mut engine = Engine::new(g, nodes, awake).unwrap();
    let all_done = engine.run_until_all_done(round_cap(&cfg, k));
    let rounds_total = engine.round();

    let mut delivered_sum = 0.0f64;
    let mut success = all_done;
    for node in engine.nodes() {
        let mut got = node.packets();
        got.sort_by_key(|p| p.key);
        got.dedup();
        #[allow(clippy::cast_precision_loss)]
        {
            delivered_sum += got
                .iter()
                .filter(|p| expected.binary_search_by_key(&p.key, |e| e.key).is_ok())
                .count() as f64
                / k as f64;
        }
        if got != expected {
            success = false;
        }
    }

    let root = engine.nodes().iter().find(|nd| nd.is_root());
    let (stages, collection_phases) = match root {
        Some(r) => {
            let collect = r.collection_finished_at().unwrap_or(0);
            let s123 = cfg.stage3_start() + collect;
            (
                StageRounds {
                    leader: cfg.stage1_rounds(),
                    bfs: cfg.stage2_rounds(),
                    collect,
                    disseminate: rounds_total.saturating_sub(s123),
                },
                r.collection_phase().unwrap_or(0),
            )
        }
        None => (StageRounds::default(), 0),
    };

    let mut tx_by_type = radio_kbcast::kbcast::node::TxCounts::default();
    for node in engine.nodes() {
        tx_by_type.add(&node.tx_counts());
    }

    #[allow(clippy::cast_precision_loss)]
    SessionReport {
        n,
        k,
        diameter,
        max_degree,
        success,
        rounds_total,
        delivered_fraction: delivered_sum / n as f64,
        stats: *engine.stats(),
        meta: KbcastMeta {
            stages,
            collection_phases,
            tx_by_type,
            ..KbcastMeta::default()
        },
        trace: None,
    }
}

/// The original BII runner: the plain step loop, stopped by the
/// all-nodes-know-k predicate.
fn legacy_bii_run(topology: &Topology, k: usize, seed: u64) -> SessionReport<()> {
    let g = topology.build(seed).unwrap();
    let n = g.len();
    let g_max_degree = g.max_degree();
    let cfg = BiiConfig::for_network(n, g_max_degree);
    let d = g.diameter().unwrap_or(0);
    let w = Workload::random(n, k, seed);
    let per_node: Vec<_> = (0..n).map(|i| w.packets_of(i)).collect();
    let awake: Vec<NodeId> = per_node
        .iter()
        .enumerate()
        .filter(|(_, pkts)| !pkts.is_empty())
        .map(|(i, _)| NodeId::new(i))
        .collect();
    let nodes: Vec<BiiNode> = per_node
        .into_iter()
        .enumerate()
        .map(|(i, pkts)| BiiNode::new(cfg, pkts, rng::stream(seed, i as u64)))
        .collect();
    let mut engine = Engine::new(g, nodes, awake).unwrap();
    let epoch = Decay::new(cfg.delta_bound).epoch_len() as u64;
    let cap = 8 * ((k as u64 + d as u64 + 2) * cfg.epochs_per_packet as u64 * epoch) + 64;
    let success = engine
        .run_session_with(cap, &mut NoopObserver, |e| {
            if e.nodes().iter().all(|nd| nd.known_count() == k) {
                SessionControl::Stop
            } else {
                SessionControl::Continue
            }
        })
        .completed;
    SessionReport {
        n,
        k,
        diameter: d,
        max_degree: g_max_degree,
        success,
        rounds_total: engine.round(),
        delivered_fraction: 1.0,
        stats: *engine.stats(),
        meta: (),
        trace: None,
    }
}

#[test]
fn coded_report_matches_legacy_engine_drive() {
    let topo = Topology::Gnp { n: 24, p: 0.25 };
    for seed in 0..3 {
        let new = coded(
            &topo,
            &Workload::random(24, 12, seed),
            seed,
            RunOptions::default(),
        );
        let old = legacy_coded_run(&topo, 12, seed);
        assert_eq!(new.success, old.success, "seed {seed}");
        assert_eq!(new.rounds_total, old.rounds_total, "seed {seed}");
        assert_eq!(new.stats, old.stats, "seed {seed}");
        assert_eq!(new.meta.stages, old.meta.stages, "seed {seed}");
        assert_eq!(
            new.meta.collection_phases, old.meta.collection_phases,
            "seed {seed}"
        );
        assert_eq!(new.meta.tx_by_type, old.meta.tx_by_type, "seed {seed}");
        assert_eq!(
            new.delivered_fraction.to_bits(),
            old.delivered_fraction.to_bits(),
            "seed {seed}"
        );
        assert_eq!((new.n, new.k), (old.n, old.k), "seed {seed}");
        assert_eq!(
            (new.diameter, new.max_degree),
            (old.diameter, old.max_degree),
            "seed {seed}"
        );
    }
}

#[test]
fn bii_report_matches_legacy_engine_drive() {
    let topo = Topology::Grid2d { rows: 4, cols: 5 };
    for seed in 0..3 {
        let new = run_protocol(
            &BiiProtocol::default(),
            &topo,
            &Workload::random(20, 10, seed),
            seed,
            RunOptions::default(),
        )
        .unwrap();
        let old = legacy_bii_run(&topo, 10, seed);
        assert_eq!(new.success, old.success, "seed {seed}");
        assert_eq!(new.rounds_total, old.rounds_total, "seed {seed}");
        assert_eq!(new.stats, old.stats, "seed {seed}");
        assert_eq!((new.n, new.k), (old.n, old.k), "seed {seed}");
        assert_eq!(
            (new.diameter, new.max_degree),
            (old.diameter, old.max_degree),
            "seed {seed}"
        );
    }
}

#[test]
fn lossy_run_succeeds_on_small_grid() {
    let graph = Topology::Grid2d { rows: 4, cols: 4 }.build(0).unwrap();
    let w = Workload::random(16, 8, 0);
    let opts = RunOptions {
        faults: "uniform:rate=0.05".parse().unwrap(),
        ..RunOptions::default()
    };
    let r = run_protocol_on_graph(&CodedProtocol::default(), graph, &w, 0, opts).unwrap();
    assert!(r.success, "5% loss must be absorbed on a 4x4 grid");
    assert!((r.delivered_fraction - 1.0).abs() < 1e-12);
    // The recorded outcome of this seed on the engine's original loss
    // path, which the fault model reproduces draw for draw.
    assert_eq!(r.rounds_total, 4461);
    assert_eq!(r.stats.dropped, 108);
}

#[test]
fn invalid_uniform_rate_is_rejected_up_front() {
    let lossy = |faults: FaultSpec| {
        let opts = RunOptions {
            faults,
            ..RunOptions::default()
        };
        run_protocol(
            &CodedProtocol::default(),
            &Topology::Path { n: 4 },
            &Workload::random(4, 2, 0),
            0,
            opts,
        )
    };
    for bad in [-0.1, 1.0, 1.5, f64::NAN] {
        let err = UniformLoss::new(bad, 0).unwrap_err();
        assert!(
            matches!(err, Error::InvalidParameter { .. }),
            "rate {bad} must be rejected as InvalidParameter, got {err:?}"
        );
        // The spec form fails when the driver builds it, before any
        // engine exists.
        let err = lossy(FaultSpec {
            uniform: Some(bad),
            ..FaultSpec::default()
        })
        .unwrap_err();
        assert!(matches!(err, Error::InvalidParameter { .. }), "{err:?}");
    }
    for text in ["uniform:rate=1.5", "uniform:rate=-0.1"] {
        let spec: FaultSpec = text.parse().unwrap();
        assert!(lossy(spec).is_err(), "{text} must not build");
    }
}

#[test]
fn zero_round_cap_is_rejected_up_front() {
    let topo = Topology::Path { n: 4 };
    let w = Workload::random(4, 2, 0);
    let opts = RunOptions {
        max_rounds: Some(0),
        ..RunOptions::default()
    };
    let err = run_protocol(&CodedProtocol::default(), &topo, &w, 0, opts).unwrap_err();
    assert!(matches!(err, Error::InvalidParameter { .. }));
}

#[test]
fn undersized_config_is_rejected_up_front() {
    // A caller's configuration sized for n/4 nodes has ids too narrow
    // for the nodes above n/4: accepted, its leader election would
    // panic ("id 16 does not fit in 4 bits").
    let refused = |err: Error| {
        assert!(
            matches!(&err, Error::InvalidParameter { reason }
                if reason.contains("4-bit ids cannot number 64 nodes")),
            "{err}"
        );
    };
    let topo = Topology::Grid2d { rows: 8, cols: 8 };
    let g = topo.build(1).unwrap();
    let (n, d, delta) = (g.len(), g.diameter().unwrap(), g.max_degree());
    let w = Workload::single_source(n, 0, 4);
    let small = Config::for_network(n / 4, d, delta);
    for verify in [false, true] {
        let opts = RunOptions {
            verify,
            ..RunOptions::default()
        };
        let coded = CodedProtocol {
            config: Some(small),
            uncoded: false,
        };
        refused(run_protocol(&coded, &topo, &w, 1, opts).unwrap_err());
        let arrivals = [Arrival {
            round: 0,
            node: 0,
            payload: vec![1],
        }];
        refused(run_streaming(&topo, &arrivals, Some(small), 1, 100_000, opts).unwrap_err());
    }
    let fits = CodedProtocol {
        config: Some(Config::for_network(n, d, delta)),
        uncoded: false,
    };
    assert!(
        run_protocol(&fits, &topo, &w, 1, RunOptions::default())
            .unwrap()
            .success
    );
}

#[test]
fn undersized_ghk_config_is_rejected_up_front() {
    let topo = Topology::Grid2d { rows: 8, cols: 8 };
    let g = topo.build(1).unwrap();
    let (n, d, delta) = (g.len(), g.diameter().unwrap(), g.max_degree());
    let w = Workload::single_source(n, 0, 4);
    let ghk = |nodes| GhkProtocol {
        config: Some(GhkConfig::for_network(nodes, d, delta)),
    };
    let err = run_protocol(&ghk(n / 4), &topo, &w, 1, RunOptions::default()).unwrap_err();
    assert!(
        matches!(&err, Error::InvalidParameter { reason }
            if reason.contains("4-bit ids cannot number 64 nodes")),
        "{err}"
    );
    assert!(
        run_protocol(&ghk(n), &topo, &w, 1, RunOptions::default())
            .unwrap()
            .success
    );
}

#[test]
fn oversize_payload_is_rejected_up_front() {
    // Accepted, a payload over the limit would panic the first Stage 4
    // encode; every session entry must refuse it with an error instead.
    let refused = |err: Error| {
        assert!(
            matches!(&err, Error::InvalidParameter { reason } if reason.contains("limit of 65521 bytes")),
            "{err}"
        );
    };
    let topo = Topology::Grid2d { rows: 3, cols: 3 };
    let one_at_0 = |len: usize| {
        let mut payloads = vec![Vec::new(); 9];
        payloads[0].push(vec![7; len]);
        Workload::new(payloads)
    };
    let graph = topo.build(1).unwrap();
    let w = one_at_0(MAX_PAYLOAD_BYTES + 1);
    let coded = CodedProtocol::default();
    refused(run_protocol_on_graph(&coded, graph, &w, 1, RunOptions::default()).unwrap_err());
    // A streaming arrival after round 0 never enters the workload.
    let arrival = |round: u64, len: usize| Arrival {
        round,
        node: 4,
        payload: vec![7; len],
    };
    let arrivals = [arrival(0, 1), arrival(500, MAX_PAYLOAD_BYTES + 1)];
    refused(run_streaming(&topo, &arrivals, None, 1, 100_000, RunOptions::default()).unwrap_err());
    // A payload of exactly the limit is carried end to end.
    let r = run_protocol(
        &coded,
        &topo,
        &one_at_0(MAX_PAYLOAD_BYTES),
        1,
        RunOptions::default(),
    );
    assert!(r.unwrap().success);
}

#[test]
fn workload_for_another_node_count_is_rejected() {
    let topo = Topology::Path { n: 4 };
    let w = Workload::random(5, 2, 0);
    let err = run_protocol(
        &CodedProtocol::default(),
        &topo,
        &w,
        0,
        RunOptions::default(),
    )
    .unwrap_err();
    assert!(
        matches!(&err, Error::InvalidParameter { reason } if reason.contains("5 nodes, graph has 4")),
        "{err}"
    );
}

#[test]
fn round_cap_reports_truthful_failure() {
    let topo = Topology::Gnp { n: 24, p: 0.25 };
    let w = Workload::random(24, 12, 0);
    let opts = RunOptions {
        max_rounds: Some(10),
        ..RunOptions::default()
    };
    let r = coded(&topo, &w, 0, opts);
    assert!(!r.success, "10 rounds cannot complete leader election");
    assert_eq!(r.rounds_total, 10);
    // Truthful partial delivery: this early nothing is decoded, and the
    // report must say so rather than claim completion.
    assert!(r.delivered_fraction < 1.0);
    assert!(r.delivered_fraction >= 0.0);
}

/// [`CodedProtocol`] whose `build` names one initially-awake node past
/// the end of the network.
struct AwakeOutOfRange(CodedProtocol);

impl BroadcastProtocol for AwakeOutOfRange {
    type Node = KbcastNode;
    type Cd = NoCd;
    type Obs = StageObserver;
    type Meta = KbcastMeta;

    fn name(&self) -> &'static str {
        "awake-out-of-range"
    }

    fn build(
        &self,
        net: &NetParams,
        workload: &Workload,
        seed: u64,
    ) -> (Vec<KbcastNode>, Vec<NodeId>) {
        let (nodes, mut awake) = self.0.build(net, workload, seed);
        awake.push(NodeId::new(net.n + 3));
        (nodes, awake)
    }

    fn observer(&self, net: &NetParams) -> StageObserver {
        self.0.observer(net)
    }

    fn round_cap(&self, net: &NetParams, k: usize) -> u64 {
        self.0.round_cap(net, k)
    }

    fn delivered(&self, node: &KbcastNode) -> Vec<PacketKey> {
        self.0.delivered(node)
    }

    fn finish(&self, obs: StageObserver, nodes: &[KbcastNode], end: &SessionEnd) -> KbcastMeta {
        self.0.finish(obs, nodes, end)
    }
}

#[test]
fn out_of_range_awake_id_is_the_same_error_with_verify() {
    // The engine refuses the id; a verified session must return that
    // error too, not panic in the model checker built beside it.
    let topo = Topology::Grid2d { rows: 3, cols: 3 };
    let w = Workload::random(9, 4, 0);
    let protocol = AwakeOutOfRange(CodedProtocol::default());
    for verify in [false, true] {
        let opts = RunOptions {
            verify,
            ..RunOptions::default()
        };
        let err = run_protocol(&protocol, &topo, &w, 0, opts).unwrap_err();
        assert!(
            matches!(err, Error::NodeOutOfRange { node: 12, n: 9 }),
            "verify {verify}: {err}"
        );
    }
}
