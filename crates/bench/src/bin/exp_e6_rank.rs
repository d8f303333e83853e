//! **E6 — Lemma 3: full-rank probability of random binary matrices.**
//!
//! Paper claim: an `l × w` matrix with i.i.d. uniform GF(2) entries has
//! full column rank with probability ≥ 1 - ε once
//! `l ≥ 2(w+2) + 8·ln(1/ε)`. This is the correctness engine of the
//! Stage 4 decoder, so the Monte Carlo runs on that decoder: each trial
//! feeds `l` uniform random rows to a fresh [`Decoder`] (payloads are
//! empty; only the rank matters) and counts it full-rank once the
//! decoder is complete. The sweep shows (a) the bound holds and (b) it
//! is conservative: in practice `w + Θ(1)` rows already suffice.

use gf2::bitvec::BitVec;
use gf2::decoder::{lemma3_row_threshold, Decoder};
use kbcast_bench::table::{f3, Table};
use kbcast_bench::Scale;
use radio_net::rng;

fn main() {
    let scale = Scale::from_env();
    let trials = scale.pick(500, 5_000);
    let ws: Vec<usize> = vec![4, 8, 16, 32];
    println!("E6: Pr[full column rank] of random l x w GF(2) matrices, {trials} trials/cell");
    println!();

    let mut t = Table::new(&[
        "w",
        "l=w",
        "l=w+2",
        "l=w+5",
        "l=w+10",
        "lemma3 l (ε=.01)",
        "Pr at lemma3 l",
    ]);
    let mut rng = rng::stream(0, rng::salts::ANALYSIS);
    for &w in &ws {
        let mut probe = |l: usize| -> f64 {
            let full = (0..trials)
                .filter(|_| {
                    // All `l` rows are drawn even once the decoder is
                    // complete, so every trial consumes the same stream.
                    let mut decoder = Decoder::new(w, 0);
                    for _ in 0..l {
                        decoder.insert(BitVec::random(w, &mut rng), Vec::new());
                    }
                    decoder.is_complete()
                })
                .count();
            #[allow(clippy::cast_precision_loss)]
            {
                full as f64 / trials as f64
            }
        };
        let at_w = probe(w);
        let at_w2 = probe(w + 2);
        let at_w5 = probe(w + 5);
        let at_w10 = probe(w + 10);
        let l3 = lemma3_row_threshold(w, 0.01);
        let at_l3 = probe(l3);
        t.row(&[
            w.to_string(),
            f3(at_w),
            f3(at_w2),
            f3(at_w5),
            f3(at_w10),
            l3.to_string(),
            f3(at_l3),
        ]);
        assert!(
            at_l3 >= 0.99 - 0.01,
            "Lemma 3 violated at w={w}: {at_l3} < 0.99"
        );
    }
    t.print();
    println!();
    println!("claim check: Pr at the Lemma 3 threshold ≥ 0.99 in every row (asserted).");
    println!("observation: w + ~5 rows already decode with ≥ 95% probability — the lemma is");
    println!("conservative, which is why the calibrated c_fwd can sit far below its constants.");
}
