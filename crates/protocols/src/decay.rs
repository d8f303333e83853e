//! The Decay transmission schedule (Bar-Yehuda, Goldreich & Itai, 1992).
//!
//! In each *epoch* of `⌈log Δ⌉` rounds, an active node transmits in round
//! `s = 0, 1, …` of the epoch with probability `1/2^(s+1)`. The classic
//! Decay lemma: if a listener has between 1 and Δ transmitting-capable
//! neighbors, some round of the epoch has an expected number of
//! transmitters near 1, and the listener receives with probability
//! bounded below by a constant. Experiment E10 measures that constant.

use rand::Rng;

use crate::timing::epoch_len;

/// The Decay schedule for a given maximum-degree bound.
///
/// Stateless apart from the epoch length; every "active" participant
/// draws independently each round.
///
/// ```
/// use protocols::decay::Decay;
///
/// let decay = Decay::new(8); // Δ ≤ 8 → epochs of 3 rounds
/// assert_eq!(decay.epoch_len(), 3);
/// assert_eq!(decay.probability(0), 0.5);
/// assert_eq!(decay.probability(5), 0.125); // round 5 = epoch round 2
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decay {
    /// At most 64 (`⌈log2 Δ⌉` of a `usize` Δ).
    epoch_len: u32,
}

impl Decay {
    /// Schedule for maximum degree at most `delta_bound`.
    #[must_use]
    pub fn new(delta_bound: usize) -> Self {
        Decay {
            epoch_len: epoch_len(delta_bound) as u32,
        }
    }

    /// Rounds per epoch (`⌈log2 Δ⌉`, at least 1).
    #[must_use]
    pub fn epoch_len(&self) -> usize {
        self.epoch_len as usize
    }

    /// Epoch index of a local round.
    #[must_use]
    pub fn epoch_of(&self, local_round: u64) -> u64 {
        local_round / u64::from(self.epoch_len)
    }

    /// First local round after the epoch holding `local_round`.
    #[must_use]
    pub fn epoch_end(&self, local_round: u64) -> u64 {
        (self.epoch_of(local_round) + 1) * u64::from(self.epoch_len)
    }

    /// Rung of `local_round` (its position within its epoch), given that
    /// epoch's [`Decay::epoch_end`]: the same value as `local_round mod
    /// epoch_len`, for a caller that caches the epoch end and so skips
    /// the division.
    #[must_use]
    pub fn rung_before(&self, local_round: u64, epoch_end: u64) -> u32 {
        debug_assert!(epoch_end == self.epoch_end(local_round));
        (local_round + u64::from(self.epoch_len) - epoch_end) as u32
    }

    /// Transmission probability at `local_round` (position within the
    /// epoch selects the rung of the `1/2, 1/4, …` ladder).
    #[must_use]
    pub fn probability(&self, local_round: u64) -> f64 {
        let s = (local_round % u64::from(self.epoch_len)) as i32;
        0.5f64.powi(s + 1)
    }

    /// Draws the transmit/listen decision for an active node at
    /// `local_round`.
    #[must_use]
    pub fn should_transmit(&self, local_round: u64, rng: &mut impl Rng) -> bool {
        let s = (local_round % u64::from(self.epoch_len)) as u32;
        Self::rung_draw(s, rng)
    }

    /// Draws the transmit/listen decision on rung `s` of the ladder
    /// (transmit with probability `2^-(s+1)`) in integer form.
    ///
    /// Bit-identical to `rng.gen_bool(2^-(s+1))` for every `s < 1074`,
    /// consuming the same single `u64`: `gen_bool` compares
    /// `m · 2^-53` against `p` for the top 53 bits `m`, which for a
    /// power of two is exactly `m < 2^(52-s)`, or `m == 0` once
    /// `s ≥ 52`.
    #[must_use]
    pub fn rung_draw(s: u32, rng: &mut impl Rng) -> bool {
        (rng.next_u64() >> 11) < 1u64 << 52u32.saturating_sub(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radio_net::engine::{Engine, Node};
    use radio_net::graph::NodeId;
    use radio_net::rng;
    use radio_net::topology;
    use rand::rngs::SmallRng;
    use rand::RngCore;

    #[test]
    fn ladder_probabilities() {
        let d = Decay::new(16); // epoch_len 4
        assert_eq!(d.epoch_len(), 4);
        let expect = [0.5, 0.25, 0.125, 0.0625, 0.5, 0.25];
        for (r, want) in expect.into_iter().enumerate() {
            assert!((d.probability(r as u64) - want).abs() < 1e-12);
        }
        assert_eq!(d.epoch_of(7), 1);
        assert_eq!(d.epoch_of(8), 2);
    }

    #[test]
    fn cached_epoch_end_gives_the_rung() {
        for delta in [1, 2, 5, 16, 1000] {
            let d = Decay::new(delta);
            let len = d.epoch_len() as u64;
            for r in 0..5 * len {
                let end = d.epoch_end(r);
                assert!(end > r && end - r <= len && end.is_multiple_of(len));
                assert_eq!(u64::from(d.rung_before(r, end)), r % len);
            }
        }
    }

    #[test]
    fn rung_draw_matches_gen_bool() {
        let d = Decay::new(usize::MAX); // epoch_len 64: rungs 0..64
        for s in 0..64u32 {
            let mut a = rng::stream(7, u64::from(s));
            let mut b = a.clone();
            for _ in 0..10_000 {
                let want = b.gen_bool(d.probability(u64::from(s)));
                assert_eq!(Decay::rung_draw(s, &mut a), want, "rung {s}");
            }
            assert_eq!(a.next_u64(), b.next_u64(), "rung {s}: streams diverged");
        }
    }

    /// Yields one fixed word, so a draw can sit exactly on a threshold.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u32(&mut self) -> u32 {
            self.0 as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// The words on either side of each rung's threshold, which random
    /// draws almost never hit.
    #[test]
    fn rung_draw_matches_gen_bool_at_the_thresholds() {
        let d = Decay::new(usize::MAX);
        for s in 0..64u32 {
            let edge = if s < 52 { 1u64 << (63 - s) } else { 1 << 11 };
            for word in [edge - 1, edge, 0, u64::MAX] {
                let want = Fixed(word).gen_bool(d.probability(u64::from(s)));
                assert_eq!(
                    Decay::rung_draw(s, &mut Fixed(word)),
                    want,
                    "rung {s}, {word:#x}"
                );
                assert_eq!(want, word < edge, "rung {s}, {word:#x}");
            }
        }
    }

    #[test]
    fn degenerate_delta_still_transmits() {
        let d = Decay::new(1);
        assert_eq!(d.epoch_len(), 1);
        assert_eq!(d.probability(0), 0.5);
    }

    /// A Decay sender on a star: `t` leaves are active, the hub listens.
    struct DecayLeaf {
        decay: Decay,
        active: bool,
        rng: SmallRng,
    }

    #[derive(Default)]
    struct CountingHub {
        received: usize,
    }

    enum Star {
        Leaf(DecayLeaf),
        Hub(CountingHub),
    }

    impl Node for Star {
        type Msg = u8;
        fn poll(&mut self, round: u64) -> Option<u8> {
            match self {
                Star::Leaf(l) => {
                    (l.active && l.decay.should_transmit(round, &mut l.rng)).then_some(1)
                }
                Star::Hub(_) => None,
            }
        }
        fn receive(&mut self, _round: u64, _msg: &u8) {
            if let Star::Hub(h) = self {
                h.received += 1;
            }
        }
    }

    /// The Decay lemma, empirically: for any number of active neighbors
    /// `t ∈ {1, …, Δ}`, the hub receives within one epoch with
    /// probability ≥ some constant (we check ≥ 0.2, comfortably below the
    /// analytic bound, and far above what a fixed-probability scheme
    /// achieves at t = Δ).
    #[test]
    fn decay_lemma_constant_reception_probability() {
        let delta: usize = 32;
        let trials = 400;
        for t in [1usize, 2, 5, 16, 32] {
            let mut successes = 0;
            for trial in 0..trials {
                let g = topology::star(delta + 1).unwrap();
                let nodes: Vec<Star> = (0..=delta)
                    .map(|i| {
                        if i == 0 {
                            Star::Hub(CountingHub::default())
                        } else {
                            Star::Leaf(DecayLeaf {
                                decay: Decay::new(delta),
                                active: i <= t,
                                rng: rng::stream(trial as u64, i as u64),
                            })
                        }
                    })
                    .collect();
                let mut e = Engine::new(g, nodes, (0..=delta).map(NodeId::new)).unwrap();
                e.run(Decay::new(delta).epoch_len() as u64);
                if let Star::Hub(h) = e.node(NodeId::new(0)) {
                    if h.received > 0 {
                        successes += 1;
                    }
                }
            }
            let p = f64::from(successes) / f64::from(trials as u32);
            assert!(p >= 0.2, "t = {t}: reception probability {p:.3} < 0.2");
        }
    }
}
