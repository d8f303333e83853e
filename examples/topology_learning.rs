//! Topology learning — the paper's introduction names "learning the
//! topology of the underlying network (in order to benefit from the
//! efficiency of centralized solutions)" as a k-broadcast application.
//!
//! Each node's packet is its own adjacency list. After one k-broadcast
//! (k = n packets) every node holds every adjacency list and can
//! reconstruct the entire graph locally — from then on it can run
//! *centralized* algorithms (optimal schedules, shortest paths, …).
//!
//! ```sh
//! cargo run --release --example topology_learning
//! ```

use radio_kbcast::kbcast::packet::Packet;
use radio_kbcast::kbcast::runner::{CodedProtocol, RunOptions, Workload};
use radio_kbcast::kbcast::session::run_protocol;
use radio_kbcast::radio_net::graph::{Graph, NodeId};
use radio_kbcast::radio_net::topology::Topology;

/// Serializes a neighbor list as `[count: u16][u32 ids...]`.
fn adjacency_payload(neighbors: &[NodeId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + 4 * neighbors.len());
    out.extend_from_slice(&u16::try_from(neighbors.len()).unwrap().to_le_bytes());
    for v in neighbors {
        out.extend_from_slice(&u32::try_from(v.index()).unwrap().to_le_bytes());
    }
    out
}

/// Parses the payload back into neighbor indices.
fn parse_adjacency(payload: &[u8]) -> Vec<usize> {
    let count = u16::from_le_bytes(payload[..2].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| u32::from_le_bytes(payload[2 + 4 * i..6 + 4 * i].try_into().unwrap()) as usize)
        .collect()
}

/// Reconstructs the graph from the broadcast packets, exactly as any
/// node would after delivery.
fn reconstruct(n: usize, packets: &[Packet]) -> Graph {
    let mut edges = Vec::new();
    for p in packets {
        let u = usize::try_from(p.key.origin).unwrap();
        for v in parse_adjacency(&p.payload) {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, edges).expect("adjacency lists describe a valid graph")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 64;
    let topology = Topology::Gnp { n, p: 0.12 };
    let graph = topology.build(11)?;

    // Each node packages its own neighborhood. (In a real deployment a
    // node learns its neighborhood by listening; here the harness reads
    // it off the generated graph.)
    let workload = Workload::new(
        (0..n)
            .map(|i| vec![adjacency_payload(graph.neighbors(NodeId::new(i)))])
            .collect(),
    );

    let report = run_protocol(
        &CodedProtocol::default(),
        &topology,
        &workload,
        11,
        RunOptions::default(),
    )?;
    assert!(report.success);

    // Every node can now rebuild the graph; verify the reconstruction
    // is exact.
    let all_packets: Vec<Packet> = (0..n).flat_map(|i| workload.packets_of(i)).collect();
    let learned = reconstruct(n, &all_packets);
    assert_eq!(learned, graph, "every node reconstructs the exact topology");

    println!("topology learned by all {} nodes:", n);
    println!("  edges     : {}", learned.edge_count());
    println!("  diameter  : {}", learned.diameter().unwrap());
    println!("  max degree: {}", learned.max_degree());
    println!(
        "cost: {} rounds for {} adjacency packets = {:.1} rounds/packet",
        report.rounds_total,
        report.k,
        report.amortized_rounds_per_packet()
    );
    println!("nodes can now run centralized algorithms on the learned graph.");
    Ok(())
}
