//! Sensor-network aggregation — one of the applications the paper's
//! introduction motivates ("aggregating functions in sensor networks").
//!
//! Every sensor in a unit-disk deployment holds one reading; after one
//! k-broadcast (k = n) every sensor knows *all* readings and can compute
//! any aggregate locally (min/max/mean/outliers — no in-network
//! aggregation tree, no single point of failure). The inherited cost is
//! amortized `O(logΔ)` rounds per reading.
//!
//! ```sh
//! cargo run --release --example sensor_aggregation
//! ```

use radio_kbcast::kbcast::baseline::BiiProtocol;
use radio_kbcast::kbcast::runner::{CodedProtocol, RunOptions, Workload};
use radio_kbcast::kbcast::session::run_protocol;
use radio_kbcast::radio_net::topology::Topology;

/// A sensor reading, serialized into a packet payload.
fn reading_payload(sensor: usize) -> Vec<u8> {
    // Synthetic temperature field: a gradient plus per-sensor noise.
    let temp_milli_c = 20_000 + (sensor as i32 * 37) % 5_000;
    temp_milli_c.to_le_bytes().to_vec()
}

fn parse_reading(payload: &[u8]) -> i32 {
    i32::from_le_bytes(payload[..4].try_into().expect("4-byte reading"))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 100;
    let topology = Topology::UnitDisk { n, radius: 0.25 };
    // Every sensor holds exactly one packet: its own reading.
    let workload = Workload::new((0..n).map(|i| vec![reading_payload(i)]).collect());

    let opts = RunOptions::default();
    let report = run_protocol(&CodedProtocol::default(), &topology, &workload, 7, opts)?;
    assert!(report.success, "aggregation requires full delivery");

    // Any node can now aggregate locally; the harness demonstrates with
    // the ground-truth packet set (every node holds exactly this set).
    let readings: Vec<i32> = (0..n)
        .flat_map(|i| workload.packets_of(i))
        .map(|p| parse_reading(&p.payload))
        .collect();
    let min = readings.iter().min().unwrap();
    let max = readings.iter().max().unwrap();
    let mean = readings.iter().map(|&r| i64::from(r)).sum::<i64>() / n as i64;

    println!(
        "deployment      : {topology} (D = {}, Δ = {})",
        report.diameter, report.max_degree
    );
    println!("readings shared : {}", report.k);
    println!(
        "rounds          : {} ({:.1}/reading)",
        report.rounds_total,
        report.amortized_rounds_per_packet()
    );
    println!("aggregates known at EVERY sensor:");
    println!("  min  = {:.3} °C", f64::from(*min) / 1000.0);
    println!("  max  = {:.3} °C", f64::from(*max) / 1000.0);
    println!("  mean = {:.3} °C", mean as f64 / 1000.0);

    // The same task under the BII baseline, for comparison.
    let bii = run_protocol(&BiiProtocol::default(), &topology, &workload, 7, opts)?;
    println!(
        "baseline (BII)  : {} rounds ({:.1}/reading), success = {}",
        bii.rounds_total,
        bii.amortized_rounds_per_packet(),
        bii.success
    );
    Ok(())
}
