//! The timing wrappers change no simulated outcome: a session through
//! `Timed<CodedProtocol>` (timed nodes, timed steps) equals the plain
//! session bit for bit — bare and with the verifiers and trace on — and
//! a `TimedNode<BiiNode>` engine under `run_timed` equals a plain one
//! under `run_until_all_done`.

use kbcast::baseline::{BiiConfig, BiiNode};
use kbcast::runner::{RunOptions, Workload};
use kbcast::session::run_protocol_on_graph;
use kbcast::CodedProtocol;
use kbcast_perfbench::timed::{
    run_timed, take_counters, Overhead, StepLog, Timed, TimedNode, SAMPLE,
};
use radio_net::engine::Engine;
use radio_net::graph::NodeId;
use radio_net::rng;
use radio_net::session::NoopObserver;
use radio_net::topology::Topology;

const GRID: Topology = Topology::Grid2d { rows: 5, cols: 6 };

#[test]
fn timed_coded_sessions_are_bit_identical() {
    let graph = GRID.build(0).expect("grid builds");
    let workload = Workload::round_robin(graph.len(), 12);
    for seed in 0..3 {
        for (verify, trace) in [(false, false), (true, true)] {
            let opts = RunOptions {
                verify,
                trace,
                ..RunOptions::default()
            };
            let plain = run_protocol_on_graph(
                &CodedProtocol::default(),
                graph.clone(),
                &workload,
                seed,
                opts,
            )
            .expect("plain session runs");
            let timed = Timed::new(CodedProtocol::default());
            take_counters();
            let report = run_protocol_on_graph(&timed, graph.clone(), &workload, seed, opts)
                .expect("timed session runs");
            let counters = take_counters();
            assert!(plain.success, "seed {seed}");
            assert_eq!(report.success, plain.success);
            assert_eq!(report.rounds_total, plain.rounds_total);
            assert_eq!(report.stats, plain.stats);
            assert_eq!(report.meta, plain.meta);
            assert_eq!(report.delivered_fraction, plain.delivered_fraction);
            assert_eq!(report.trace, plain.trace);
            let log = timed.take_log();
            assert_eq!(log.step_ns.len() as u64, plain.rounds_total);
            assert_eq!(log.calls.iter().sum::<u64>(), counters.calls());
            assert!(counters.poll.calls > 0 && counters.receive.calls > 0);
            assert_eq!(counters.poll.timed, counters.poll.calls / SAMPLE);
        }
    }
}

#[test]
fn timed_bii_engine_is_bit_identical() {
    let graph = GRID.build(0).expect("grid builds");
    let n = graph.len();
    let k = 3;
    let workload = Workload::single_source(n, 0, k);
    let cfg = BiiConfig::for_network(n, graph.max_degree());
    for seed in 0..3 {
        let build = || -> Vec<BiiNode> {
            (0..n)
                .map(|i| {
                    BiiNode::with_target(
                        cfg,
                        workload.packets_of(i),
                        rng::stream(seed, i as u64),
                        k,
                    )
                })
                .collect()
        };
        let mut plain = Engine::new(graph.clone(), build(), vec![NodeId::new(0)]).expect("engine");
        let done = plain.run_until_all_done(100_000);
        let wrapped: Vec<TimedNode<BiiNode>> = build().into_iter().map(TimedNode).collect();
        let mut timed = Engine::new(graph.clone(), wrapped, vec![NodeId::new(0)]).expect("engine");
        let mut log = StepLog::default();
        let end = run_timed(&mut timed, 100_000, &mut NoopObserver, &mut log);
        assert!(done, "seed {seed}");
        assert_eq!(end.completed, done);
        assert_eq!(timed.round(), plain.round());
        assert_eq!(timed.stats(), plain.stats());
        assert_eq!(log.step_ns.len() as u64, plain.round());
        for i in 0..n {
            let id = NodeId::new(i);
            assert_eq!(timed.is_awake(id), plain.is_awake(id));
        }
    }
}

#[test]
fn calibration_is_finite_and_positive() {
    let ov = Overhead::calibrate();
    assert!(ov.inside_ns.is_finite() && ov.inside_ns > 0.0);
    assert!(ov.per_call_ns.is_finite() && ov.per_call_ns >= 0.0);
}
