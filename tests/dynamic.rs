//! Integration tests of the dynamic-arrival extension
//! (`kbcast::dynamic`): the batch pipeline on real topologies.

use radio_kbcast::kbcast::dynamic::{run_streaming, Arrival, DynamicMeta};
use radio_kbcast::kbcast::runner::RunOptions;
use radio_kbcast::kbcast::session::SessionReport;
use radio_kbcast::radio_net::topology::Topology;

/// One streaming session with default options.
fn stream(
    topo: &Topology,
    arrivals: &[Arrival],
    seed: u64,
    horizon: u64,
) -> SessionReport<DynamicMeta> {
    run_streaming(topo, arrivals, None, seed, horizon, RunOptions::default()).unwrap()
}

fn wave(round: u64, nodes: &[usize], tag: u8) -> Vec<Arrival> {
    nodes
        .iter()
        .enumerate()
        .map(|(i, &node)| Arrival {
            round,
            node,
            payload: vec![tag, i as u8],
        })
        .collect()
}

#[test]
fn three_waves_on_a_grid() {
    let mut arrivals = wave(0, &[0, 5, 10], 0);
    arrivals.extend(wave(6_000, &[3, 7], 1));
    arrivals.extend(wave(12_000, &[14, 2, 9], 2));
    let r = stream(
        &Topology::Grid2d { rows: 4, cols: 4 },
        &arrivals,
        1,
        1_000_000,
    );
    assert!(r.success, "{r:?}");
    assert_eq!(r.k, 8);
    assert_eq!(r.meta.latencies.len(), 8);
    // Batches tile time.
    for w in r.meta.batches.windows(2) {
        assert_eq!(w[0].end, w[1].start);
    }
    // Every wave is delivered no earlier than it arrived.
    assert!(r.mean_latency() > 0.0);
}

#[test]
fn deterministic_in_seed() {
    let arrivals = wave(0, &[1, 4], 0);
    let a = stream(&Topology::Cycle { n: 8 }, &arrivals, 3, 300_000);
    let b = stream(&Topology::Cycle { n: 8 }, &arrivals, 3, 300_000);
    assert_eq!(a.rounds_total, b.rounds_total);
    assert_eq!(a.meta.batches, b.meta.batches);
}

#[test]
fn horizon_caps_unfinished_runs() {
    let arrivals = wave(0, &[0], 0);
    // A horizon too small for even stage 1 to finish.
    let r = stream(&Topology::Path { n: 12 }, &arrivals, 0, 50);
    assert!(!r.success);
    assert_eq!(r.rounds_total, 50);
}

#[test]
fn random_topology_with_steady_stream() {
    let mut arrivals = wave(0, &[0, 9, 18], 0);
    for w in 1..4u64 {
        arrivals.extend(wave(
            w * 5_000,
            &[(w as usize * 7) % 27, (w as usize * 13) % 27],
            w as u8,
        ));
    }
    let r = stream(&Topology::Gnp { n: 27, p: 0.25 }, &arrivals, 5, 1_500_000);
    assert!(r.success, "{r:?}");
    assert_eq!(
        r.meta.batches.iter().map(|b| b.k).sum::<usize>(),
        r.k,
        "every packet is carried by exactly one batch"
    );
}
