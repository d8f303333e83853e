//! Streaming runs must be bit-identical regardless of worker-thread
//! count: same seed + same λ ⇒ the same arrival schedule, the same
//! delivery stamps, the same round counts — whether the sweep fans out
//! over 1 or 4 threads (`par_map_indexed_with` collects in index order
//! and every per-seed session is self-contained).

use kbcast::dynamic::{run_streaming, StreamingReport};
use kbcast::runner::RunOptions;
use kbcast_bench::parallel::par_map_indexed_with;
use kbcast_bench::traffic::{TrafficPattern, TrafficSpec};
use radio_net::topology::Topology;

fn streaming_seed_run(seed: u64) -> StreamingReport {
    let topo = Topology::Grid2d { rows: 4, cols: 4 };
    let arrivals = TrafficSpec {
        pattern: TrafficPattern::Poisson { lambda: 0.003 },
        window: 5_000,
    }
    .generate(16, seed)
    .expect("traffic spec is valid");
    let options = RunOptions {
        trace: true,
        ..RunOptions::default()
    };
    run_streaming(&topo, &arrivals, None, seed, 60_000, options).expect("session runs")
}

#[test]
fn streaming_sweep_is_thread_count_invariant() {
    let serial = par_map_indexed_with(1, 4, |i| streaming_seed_run(i as u64));
    let fanned = par_map_indexed_with(4, 4, |i| streaming_seed_run(i as u64));
    for (seed, (a, b)) in serial.iter().zip(&fanned).enumerate() {
        assert_eq!(a.success, b.success, "seed {seed}: success");
        assert_eq!(a.k, b.k, "seed {seed}: k");
        assert_eq!(a.rounds_total, b.rounds_total, "seed {seed}: rounds");
        assert_eq!(a.batches, b.batches, "seed {seed}: epoch records");
        assert_eq!(
            a.latencies, b.latencies,
            "seed {seed}: per-packet latencies"
        );
        assert_eq!(
            a.collect_closes, b.collect_closes,
            "seed {seed}: collection closes"
        );
        assert_eq!(
            a.delivered_fraction.to_bits(),
            b.delivered_fraction.to_bits(),
            "seed {seed}: delivered_fraction"
        );
        assert_eq!(a.stats, b.stats, "seed {seed}: stats");
        let (ta, tb) = (a.trace.as_ref().unwrap(), b.trace.as_ref().unwrap());
        assert_eq!(ta.queue_curve, tb.queue_curve, "seed {seed}: queue curve");
        assert_eq!(ta.queue_stats, tb.queue_stats, "seed {seed}: queue stats");
        assert_eq!(
            ta.in_flight_curve, tb.in_flight_curve,
            "seed {seed}: in-flight curve"
        );
    }
}
