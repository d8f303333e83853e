//! **E7 — Lemma 6: one `FORWARD` phase delivers a whole group to the
//! next ring w.h.p.**
//!
//! Paper claim: if every node of ring `d` knows the `⌈log n⌉`-packet
//! group and transmits random GF(2) combinations with the Decay
//! schedule, every ring-`d+1` node receives `O(log n)` rows in
//! `O(log n)` epochs and decodes (full rank by Lemma 3).
//!
//! The experiment runs the shipped Stage 4 ([`DissemNode`]) on three
//! BFS rings: the root, `t` ring-1 nodes and 8 ring-2 nodes, rings 1 and
//! 2 fully connected. The root sources one group of `m = 8` packets
//! (`n_bound = 256`, `Δ = 16`) and hands it to ring 1 raw in phase 0;
//! ring 2's decode state is read after `e` Decay epochs of phase 1.
//! The decoded fraction should cross ~1 once receptions exceed `m` by
//! a small margin; at the default `c_fwd·(m+4)` budget it must be 1.000
//! for every `t` (asserted). One phase is stretched to span the last
//! row by raising `c_fwd`, which moves no earlier row: ring 1 draws its
//! first coin in phase 1, and Decay restarts its ladder every epoch.

use kbcast::stage4::DissemNode;
use kbcast::{Config, Packet};
use kbcast_bench::table::{f1, f3, Table};
use kbcast_bench::Scale;
use radio_net::engine::Engine;
use radio_net::graph::{Graph, NodeId};

/// Epochs of phase 1 after which ring 2 is read.
const EPOCHS: [u64; 8] = [4, 8, 16, 24, 32, 48, 64, 96];
/// Ring-1 (transmitter) counts, one column each.
const TRANSMITTERS: [usize; 3] = [1, 4, 16];
/// Ring-2 (receiver) count.
const RECEIVERS: usize = 8;

/// One run with `t` ring-1 nodes: per `EPOCHS` row, the number of
/// ring-2 nodes that decoded the group and the receptions of each.
fn forward_run(cfg: Config, t: usize, seed: u64) -> Vec<(usize, u64)> {
    let r = RECEIVERS;
    let edges = (1..=t).flat_map(|a| {
        [(0, a)]
            .into_iter()
            .chain((t + 1..=t + r).map(move |b| (a, b)))
    });
    let g = Graph::from_edges(1 + t + r, edges).expect("three rings build");
    let packets: Vec<Packet> = (0..cfg.group_size())
        .map(|s| Packet::new(0, s as u32, vec![s as u8; 32]))
        .collect();
    let nodes = DissemNode::on_rings(&g, cfg, 0, &packets, seed);
    let mut e = Engine::new(g, nodes, (0..=t + r).map(NodeId::new)).expect("engine builds");
    let phase = cfg.forward_phase_rounds();
    e.run(phase);
    let base = e.stats().receptions;
    EPOCHS
        .iter()
        .map(|&epochs| {
            e.run(phase + epochs * cfg.epoch_len() as u64 - e.round());
            let decoded = e.nodes()[t + 1..]
                .iter()
                .filter(|nd| nd.state().is_complete())
                .count();
            // In phase 1 only ring 1 transmits, and the root and every
            // ring-2 node neighbor all of ring 1: each round, those
            // r + 1 listeners all receive or none does.
            (decoded, (e.stats().receptions - base) / (r as u64 + 1))
        })
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    let reps: u64 = scale.pick(5, 20);
    let mut cfg = Config::for_network(256, 2, 16);
    let m = cfg.group_size();
    let default_epochs = (cfg.c_fwd * (m + 4)) as u64;
    cfg.c_fwd = EPOCHS[EPOCHS.len() - 1] as usize / (m + 4);
    println!(
        "E7: FORWARD on the shipped Stage 4 — ring-2 decoded fraction vs epochs of \
         phase 1 (group m={m}, {RECEIVERS} ring-2 nodes, {reps} reps/cell, ring-1 \
         counts t swept per column)"
    );
    println!();

    // sums[t][row] = (ring-2 nodes decoded, receptions per ring-2 node),
    // summed over the reps.
    let sums: Vec<Vec<(usize, u64)>> = TRANSMITTERS
        .iter()
        .map(|&t| {
            let mut sum = vec![(0, 0); EPOCHS.len()];
            for rep in 0..reps {
                for (s, (decoded, rx)) in sum.iter_mut().zip(forward_run(cfg, t, rep)) {
                    s.0 += decoded;
                    s.1 += rx;
                }
            }
            sum
        })
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let frac = |decoded: usize| decoded as f64 / (reps as usize * RECEIVERS) as f64;
    #[allow(clippy::cast_precision_loss)]
    let mean_rx = |rx: u64| rx as f64 / reps as f64;

    let mut t = Table::new(&["epochs", "t=1", "t=4", "t=16", "mean rx (t=4)"]);
    for (row, epochs) in EPOCHS.iter().enumerate() {
        t.row(&[
            epochs.to_string(),
            f3(frac(sums[0][row].0)),
            f3(frac(sums[1][row].0)),
            f3(frac(sums[2][row].0)),
            f1(mean_rx(sums[1][row].1)),
        ]);
    }
    t.print();
    println!();
    let row = EPOCHS
        .iter()
        .position(|&e| e == default_epochs)
        .expect("the default budget is a row of the sweep");
    for (col, tx) in sums.iter().zip(TRANSMITTERS) {
        assert!(
            col[row].0 == reps as usize * RECEIVERS,
            "Lemma 6 violated at t={tx}: decoded fraction {} after the default \
             {default_epochs} epochs",
            frac(col[row].0)
        );
    }
    println!(
        "claim check (Lemma 6): decoded fraction 1.000 at the default budget \
         c_fwd·(m+4) = {default_epochs} epochs for every t (asserted)."
    );
}
