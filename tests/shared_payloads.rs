//! Relays share one payload buffer: a packet's copies across the
//! network are refcount bumps on the buffer its origin was built with,
//! never heap copies. Also pins the Stage 4 byte round trip, which does
//! build a fresh buffer, to the packet's equality and hash.

use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::sync::Arc;

use radio_kbcast::kbcast::baseline::BiiProtocol;
use radio_kbcast::kbcast::ghk::GhkProtocol;
use radio_kbcast::kbcast::packet::Packet;
use radio_kbcast::kbcast::runner::Workload;
use radio_kbcast::kbcast::session::{BroadcastProtocol, NetParams};
use radio_kbcast::radio_net::dyntopo::BuiltTopology;
use radio_kbcast::radio_net::engine::Engine;
use radio_kbcast::radio_net::faults::FaultSpec;
use radio_kbcast::radio_net::session::NoopObserver;
use radio_kbcast::radio_net::topology::Topology;

/// Runs a clean session of `protocol` on a 4×5 grid with `k` packets
/// spread round-robin, asserts it delivered every packet everywhere,
/// and returns each node's known packets.
fn clean_session<P>(protocol: &P, k: usize, known: fn(&P::Node) -> Vec<Packet>) -> Vec<Vec<Packet>>
where
    P: BroadcastProtocol<Obs = NoopObserver>,
{
    let seed = 3;
    let graph = Topology::Grid2d { rows: 4, cols: 5 }.build(seed).unwrap();
    let net = NetParams::of_graph(&graph);
    let workload = Workload::round_robin(net.n, k);
    let (nodes, awake) = protocol.build(&net, &workload, seed);
    let faults = FaultSpec::default().build(net.n, seed).unwrap();
    let mut engine =
        Engine::<_, _, P::Cd>::with_topology(graph, nodes, awake, faults, BuiltTopology::Static)
            .unwrap();
    let end = protocol.drive(&mut engine, protocol.round_cap(&net, k), &mut NoopObserver);
    assert!(
        end.completed,
        "{}: session did not complete",
        protocol.name()
    );
    let held: Vec<Vec<Packet>> = engine.nodes().iter().map(known).collect();
    assert!(held.iter().all(|h| h.len() == k), "{}", protocol.name());
    held
}

/// Every node's copy of each packet shares its origin's buffer.
fn assert_relays_share_origin_buffers(name: &str, held: &[Vec<Packet>]) {
    for (node, packets) in held.iter().enumerate() {
        for p in packets {
            let origin = usize::try_from(p.key.origin).unwrap();
            let own = held[origin]
                .iter()
                .find(|q| q.key == p.key)
                .expect("the origin knows its own packet");
            assert!(
                Arc::ptr_eq(&p.payload, &own.payload),
                "{name}: node {node}'s copy of {:?} is not the origin's buffer",
                p.key
            );
        }
    }
}

#[test]
fn bii_relays_share_one_buffer_per_packet() {
    let held = clean_session(&BiiProtocol::default(), 6, |n| n.known().cloned().collect());
    assert_relays_share_origin_buffers("bii", &held);
}

#[test]
fn ghk_relays_share_one_buffer_per_packet() {
    let held = clean_session(&GhkProtocol::default(), 6, |n| n.known().to_vec());
    assert_relays_share_origin_buffers("ghk", &held);
}

#[test]
fn stage4_byte_round_trip_equals_and_hashes_like_the_packet() {
    let hasher = BuildHasherDefault::<DefaultHasher>::default();
    for (seq, payload) in [vec![], vec![7], (0..=255).collect::<Vec<u8>>()]
        .into_iter()
        .enumerate()
    {
        let p = Packet::new(11, u32::try_from(seq).unwrap(), payload);
        let mut bytes = p.to_bytes();
        // Stage 4 XORs group members into zero-padded buffers.
        bytes.resize(bytes.len() + 9, 0);
        let back = Packet::from_bytes(&bytes).expect("well-formed blob");
        assert!(!Arc::ptr_eq(&back.payload, &p.payload));
        assert_eq!(back, p);
        assert_eq!(hasher.hash_one(&back), hasher.hash_one(&p));
    }
}
