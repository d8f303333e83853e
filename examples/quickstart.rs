//! Quickstart: broadcast 40 packets across a 64-node random network and
//! print what happened.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use radio_kbcast::kbcast::runner::{CodedProtocol, RunOptions, Workload};
use radio_kbcast::kbcast::session::run_protocol;
use radio_kbcast::radio_net::topology::Topology;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 64-node Erdős–Rényi radio network, connected w.h.p.
    let topology = Topology::Gnp { n: 64, p: 0.13 };

    // 40 packets placed at random nodes (the k-broadcast workload).
    let workload = Workload::random(64, 40, /* seed */ 1);

    // Run the full four-stage algorithm with calibrated defaults.
    let report = run_protocol(
        &CodedProtocol::default(),
        &topology,
        &workload,
        /* seed */ 1,
        RunOptions::default(),
    )?;
    let stages = report.meta.stages;

    println!("topology        : {topology}");
    println!(
        "network         : n = {}, D = {}, Δ = {}",
        report.n, report.diameter, report.max_degree
    );
    println!("packets         : k = {}", report.k);
    println!("success         : {}", report.success);
    println!("total rounds    : {}", report.rounds_total);
    println!(
        "stage breakdown : leader {} | bfs {} | collect {} | disseminate {}",
        stages.leader, stages.bfs, stages.collect, stages.disseminate
    );
    println!(
        "amortized       : {:.1} rounds/packet",
        report.amortized_rounds_per_packet()
    );
    println!(
        "channel         : {} transmissions, {} receptions, {} collision-rounds",
        report.stats.transmissions, report.stats.receptions, report.stats.collisions
    );
    assert!(report.success, "the calibrated defaults deliver w.h.p.");
    Ok(())
}
