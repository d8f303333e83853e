//! Streaming-session determinism: a golden pin for one small streaming
//! scenario, plus the validation surface of the streaming entry point.
//!
//! The pins are the streaming analogue of `engine_bit_identity.rs`: if
//! any of these numbers move, a change has altered the simulated
//! execution (RNG draw order, injection timing, epoch scheduling, stamp
//! placement) rather than just its reporting — bump them only with a
//! changelog note explaining why the schedule legitimately changed.

use kbcast::dynamic::{run_streaming, Arrival};
use kbcast::runner::RunOptions;
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
    assert_eq!(r.batches.len(), epochs, "epochs");
    assert_eq!(r.latencies, latencies, "latencies");
}

#[test]
fn streaming_rejects_invalid_specs() {
    use radio_net::error::Error;
    let topo = Topology::Grid2d { rows: 3, cols: 3 };
    let opts = RunOptions::default();
    let all = arrivals();

    let r = run_streaming(&topo, &all, None, 1, 0, opts);
    assert!(matches!(r, Err(Error::InvalidParameter { .. })), "{r:?}");

    let no_wake: Vec<Arrival> = all.iter().filter(|a| a.round > 0).cloned().collect();
    let r = run_streaming(&topo, &no_wake, None, 1, 1_000, opts);
    assert!(matches!(r, Err(Error::InvalidParameter { .. })), "{r:?}");

    let mut oob = all.clone();
    oob[0].node = 99;
    let r = run_streaming(&topo, &oob, None, 1, 1_000, opts);
    assert!(matches!(r, Err(Error::InvalidParameter { .. })), "{r:?}");

    let bad_opts = RunOptions {
        max_rounds: Some(0),
        ..RunOptions::default()
    };
    let r = run_streaming(&topo, &all, None, 1, 1_000, bad_opts);
    assert!(matches!(r, Err(Error::InvalidParameter { .. })), "{r:?}");
}
