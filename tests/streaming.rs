//! Streaming-session determinism: a golden pin for one small streaming
//! scenario, plus the validation surface of the streaming entry point.
//!
//! The pins are the streaming analogue of `engine_bit_identity.rs`: if
//! any of these numbers move, a change has altered the simulated
//! execution (RNG draw order, injection timing, epoch scheduling, stamp
//! placement) rather than just its reporting — bump them only with a
//! changelog note explaining why the schedule legitimately changed.

use kbcast::dynamic::{run_streaming, Arrival, DynamicProtocol};
use kbcast::runner::RunOptions;
use kbcast::session::run_protocol_on_graph;
use radio_net::topology::Topology;

/// A fixed little schedule: two round-0 packets (waking the network)
/// and three later arrivals spread over nodes and time.
fn arrivals() -> Vec<Arrival> {
    vec![
        Arrival {
            round: 0,
            node: 0,
            payload: vec![0xA0],
        },
        Arrival {
            round: 0,
            node: 5,
            payload: vec![0xA5],
        },
        Arrival {
            round: 1_500,
            node: 3,
            payload: vec![0xB3],
        },
        Arrival {
            round: 2_200,
            node: 7,
            payload: vec![0xB7],
        },
        Arrival {
            round: 4_000,
            node: 1,
            payload: vec![0xC1],
        },
    ]
}

// (rounds, transmissions, receptions, collisions, wakeups, epochs, latencies)
const GOLDEN_SEQ: (u64, u64, u64, u64, u64, usize, &[u64]) = (
    10081,
    1007,
    1381,
    462,
    7,
    3,
    &[3432, 3434, 4498, 5198, 5961],
);

#[test]
fn streaming_golden_pins() {
    let (rounds, transmissions, receptions, collisions, wakeups, epochs, latencies) = GOLDEN_SEQ;
    let r = run_streaming(
        &Topology::Grid2d { rows: 3, cols: 3 },
        &arrivals(),
        None,
        42,
        200_000,
        RunOptions {
            verify: true,
            trace: true,
            ..RunOptions::default()
        },
    )
    .expect("pinned streaming scenario runs");
    assert!(r.success, "{r:?}");
    assert_eq!(r.rounds_total, rounds, "rounds");
    assert_eq!(r.stats.transmissions, transmissions, "transmissions");
    assert_eq!(r.stats.receptions, receptions, "receptions");
    assert_eq!(r.stats.collisions, collisions, "collisions");
    assert_eq!(r.stats.wakeups, wakeups, "wakeups");
    assert_eq!(r.meta.batches.len(), epochs, "epochs");
    assert_eq!(r.meta.latencies, latencies, "latencies");
}

#[test]
fn streaming_rejects_invalid_specs() {
    use radio_net::error::Error;
    fn refused<T: std::fmt::Debug>(r: Result<T, Error>, why: &str) {
        assert!(
            matches!(&r, Err(Error::InvalidParameter { reason }) if reason.contains(why)),
            "expected a refusal naming {why:?}, got {r:?}"
        );
    }
    let topo = Topology::Grid2d { rows: 3, cols: 3 };
    let opts = RunOptions::default();
    let all = arrivals();

    refused(run_streaming(&topo, &all, None, 1, 0, opts), "horizon");
    // Someone must be present at round 0 to wake the network.
    let no_wake: Vec<Arrival> = all.iter().filter(|a| a.round > 0).cloned().collect();
    refused(
        run_streaming(&topo, &no_wake, None, 1, 1_000, opts),
        "round 0",
    );
    let mut oob = all.clone();
    oob[0].node = 99;
    refused(run_streaming(&topo, &oob, None, 1, 1_000, opts), "node 99");
    let bad_opts = RunOptions {
        max_rounds: Some(0),
        ..RunOptions::default()
    };
    refused(
        run_streaming(&topo, &all, None, 1, 1_000, bad_opts),
        "max_rounds",
    );

    // Arrivals are replayed in round order, so a schedule whose rounds
    // decrease is refused, by the streaming entry point and by the
    // session driver alike: accepted, its late-listed round-100 packet
    // would enter at round 9000 and report a wrong latency.
    let decreasing: Vec<Arrival> = [(0, 0), (9_000, 3), (100, 3)]
        .into_iter()
        .map(|(round, node)| Arrival {
            round,
            node,
            payload: vec![node as u8],
        })
        .collect();
    let mut verified = opts;
    verified.verify = true;
    let r = run_streaming(&topo, &decreasing, None, 3, 200_000, verified);
    refused(r, "non-decreasing");
    let graph = topo.build(3).unwrap();
    let protocol = DynamicProtocol {
        arrivals: &decreasing,
        config: None,
        horizon: 200_000,
    };
    let workload = protocol.initial_workload(graph.len());
    let r = run_protocol_on_graph(&protocol, graph, &workload, 3, verified);
    refused(r, "non-decreasing");
}
