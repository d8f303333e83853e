//! Routing-table update — the paper's introduction lists "update of
//! routing tables" as a k-broadcast application.
//!
//! A handful of gateway nodes each hold a batch of route-update entries
//! (prefix → next-hop metadata). One k-broadcast delivers every update
//! to every router; the comparison against the BII baseline shows the
//! amortized `O(logΔ)` vs `O(log n·logΔ)` gap on this workload shape
//! (few sources, many packets — the regime where Stage 3's pipelined
//! collection shines).
//!
//! ```sh
//! cargo run --release --example routing_update
//! ```

use radio_kbcast::kbcast::baseline::BiiProtocol;
use radio_kbcast::kbcast::runner::{CodedProtocol, RunOptions, Workload};
use radio_kbcast::kbcast::session::run_protocol;
use radio_kbcast::radio_net::topology::Topology;

/// One route update: `[prefix: u32][prefix_len: u8][next_hop: u32][metric: u16]`.
fn route_update(gateway: usize, route: usize) -> Vec<u8> {
    let prefix = ((10u32 << 24) | ((gateway as u32) << 16) | (route as u32)) & 0xFFFF_FF00;
    let mut out = Vec::with_capacity(11);
    out.extend_from_slice(&prefix.to_le_bytes());
    out.push(24);
    out.extend_from_slice(&(gateway as u32).to_le_bytes());
    out.extend_from_slice(&u16::try_from(route % 16 + 1).unwrap().to_le_bytes());
    out
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 96;
    // A metro-style backbone: two dense clusters joined by a bridge.
    let topology = Topology::Dumbbell {
        clique: 45,
        bridge: 6,
    };
    let gateways = [0usize, 50, 95];
    let updates_per_gateway = 64;

    let mut payloads = vec![Vec::new(); n];
    for (gi, &g) in gateways.iter().enumerate() {
        payloads[g] = (0..updates_per_gateway)
            .map(|r| route_update(gi, r))
            .collect();
    }
    let workload = Workload::new(payloads);
    let k = workload.k();

    let opts = RunOptions::default();
    let report = run_protocol(&CodedProtocol::default(), &topology, &workload, 3, opts)?;
    assert!(report.success, "all routers must converge");
    let bii = run_protocol(&BiiProtocol::default(), &topology, &workload, 3, opts)?;

    println!(
        "backbone        : {topology} (n = {}, D = {}, Δ = {})",
        report.n, report.diameter, report.max_degree
    );
    println!(
        "gateways        : {:?}, {} updates each, k = {k}",
        gateways, updates_per_gateway
    );
    println!();
    println!(
        "coded (paper)   : {:>7} rounds  ({:>6.1}/update)  success = {}",
        report.rounds_total,
        report.amortized_rounds_per_packet(),
        report.success
    );
    println!(
        "BII baseline    : {:>7} rounds  ({:>6.1}/update)  success = {}",
        bii.rounds_total,
        bii.amortized_rounds_per_packet(),
        bii.success
    );
    println!();
    println!(
        "stage breakdown : leader {} | bfs {} | collect {} | disseminate {}",
        report.meta.stages.leader,
        report.meta.stages.bfs,
        report.meta.stages.collect,
        report.meta.stages.disseminate
    );
    println!("all {} routers now hold all {k} route updates.", report.n);
    Ok(())
}
