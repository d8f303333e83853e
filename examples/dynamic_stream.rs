//! Dynamic packet arrivals — the paper's concluding open problem,
//! implemented as batch pipelining (see `kbcast::dynamic`).
//!
//! Telemetry events appear at random sensors over time; the network
//! continuously loops collection + coded dissemination. Every event
//! reaches every node within its batch's span; the example prints the
//! batch structure and per-event latency.
//!
//! ```sh
//! cargo run --release --example dynamic_stream
//! ```

use radio_kbcast::kbcast::dynamic::{run_streaming, Arrival};
use radio_kbcast::kbcast::runner::RunOptions;
use radio_kbcast::radio_net::topology::Topology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 36;
    let topology = Topology::Grid2d { rows: 6, cols: 6 };

    // A stream: 8 events at round 0 (bootstrapping the leader), then a
    // wave of 6 events every 5000 rounds.
    let mut arrivals = Vec::new();
    for i in 0..8 {
        arrivals.push(Arrival {
            round: 0,
            node: (i * 5) % n,
            payload: format!("event-0-{i}").into_bytes(),
        });
    }
    for wave in 1..5u64 {
        for i in 0..6 {
            arrivals.push(Arrival {
                round: wave * 5_000,
                node: (wave as usize * 11 + i * 7) % n,
                payload: format!("event-{wave}-{i}").into_bytes(),
            });
        }
    }

    let report = run_streaming(
        &topology,
        &arrivals,
        None,
        7,
        2_000_000,
        RunOptions::default(),
    )?;
    assert!(report.success, "every event must reach every node");

    println!("network   : {topology}");
    println!("events    : {} across {} waves", report.k, 5);
    println!("rounds    : {}", report.rounds_total);
    println!();
    println!("batch  packets  start    end      span");
    for b in &report.batches {
        println!(
            "{:>5}  {:>7}  {:>7}  {:>7}  {:>6}",
            b.batch,
            b.k,
            b.start,
            b.end,
            b.end - b.start
        );
    }
    println!();
    println!(
        "latency   : mean {:.0} rounds, max {} rounds (arrival → network-wide delivery)",
        report.mean_latency(),
        report.latencies.last().copied().unwrap_or(0)
    );
    Ok(())
}
