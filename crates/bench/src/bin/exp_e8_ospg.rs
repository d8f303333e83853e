//! **E8 — Lemma 4: one `OSPG(y)` collects at least half the packets
//! when `y` matches the outstanding count.**
//!
//! Paper claim: a packet assigned a unique slot in `[1, 6y]` reaches the
//! root without collision; with `k ≤ y` packets the unique-slot
//! probability is ≥ 3/4, so one shot delivers ≥ half, w.h.p. The sweep
//! varies `y/k` and measures the delivered fraction: ≥ 0.5 at
//! `y/k ≥ 1` (asserted) and rising towards 1, collapsing when `y ≪ k`.
//!
//! The experiment runs the shipped Stage 3 ([`CollectNode`]) from
//! stage-local round 0, packets spread round-robin over the non-root
//! nodes, and reads the root's collected packets when the first
//! procedure's send window closes. That procedure is phase 0's
//! `OSPG(x₀)`, `x₀ = (D + log n)·log n` of the topology, so each `y/k`
//! ratio is reached by choosing `k = x₀ / ratio`.

use kbcast::stage3::{grab_schedule, CollectNode};
use kbcast::{Config, Packet};
use kbcast_bench::table::{f3, Table};
use kbcast_bench::Scale;
use radio_net::engine::Engine;
use radio_net::graph::{Graph, NodeId};
use radio_net::topology::Topology;

/// `y/k` ratios, one column each.
const RATIOS: [f64; 6] = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0];

/// Distinct packets at the root (node 0) after one `OSPG(y)`, with `k`
/// packets spread round-robin over the other nodes.
fn ospg_run(g: &Graph, cfg: Config, send_end: u64, k: usize, seed: u64) -> usize {
    let n = g.len();
    let mut packets = vec![Vec::new(); n];
    for i in 0..k {
        let node = 1 + i % (n - 1);
        let seq = packets[node].len() as u32;
        packets[node].push(Packet::new(
            node as u64,
            seq,
            (i as u32).to_le_bytes().to_vec(),
        ));
    }
    let nodes = CollectNode::on_tree(g, cfg, 0, packets, seed);
    let mut e = Engine::new(g.clone(), nodes, (0..n).map(NodeId::new)).expect("engine builds");
    e.run(send_end);
    e.node(NodeId::new(0)).state().collected().len()
}

fn main() {
    let scale = Scale::from_env();
    let reps: u64 = scale.pick(5, 20);
    println!(
        "E8: OSPG(y) delivered fraction vs y/k on the shipped Stage 3 \
         (y = x₀ of each topology, k = y/ratio, {reps} reps/cell)"
    );
    println!();

    let topologies = [
        ("rtree(64)", Topology::RandomTree { n: 64 }),
        ("path(32)", Topology::Path { n: 32 }),
        ("star(64)", Topology::Star { n: 64 }),
    ];
    let mut t = Table::new(&["topology", "y", "y/k=1/8", "1/4", "1/2", "1", "2", "4"]);
    for (name, topo) in &topologies {
        let g = topo.build(0).expect("topology builds");
        let cfg = Config::for_network(g.len(), g.diameter().expect("connected"), g.max_degree());
        let ospg = grab_schedule(cfg.initial_estimate(), &cfg)[0];
        assert_eq!(ospg.copies, 1, "GRAB opens with an OSPG");
        let mut cells = vec![name.to_string(), ospg.y.to_string()];
        for ratio in RATIOS {
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            let k = (ospg.y as f64 / ratio).round().max(1.0) as usize;
            let delivered: usize = (0..reps)
                .map(|rep| ospg_run(&g, cfg, ospg.send_end, k, rep))
                .sum();
            #[allow(clippy::cast_precision_loss)]
            let frac = delivered as f64 / (k * reps as usize) as f64;
            assert!(
                ratio < 1.0 || frac >= 0.5,
                "Lemma 4 violated on {name} at y/k={ratio}: delivered fraction {frac}"
            );
            cells.push(f3(frac));
        }
        t.row(&cells);
    }
    t.print();
    println!();
    println!("claim check (Lemma 4): delivered fraction ≥ 0.5 at y/k ≥ 1 on every topology");
    println!("(asserted), approaching 1 as y/k grows; far below 1 it collapses (slot");
    println!("collisions dominate) — which is exactly why GRAB halves y between shots.");
}
