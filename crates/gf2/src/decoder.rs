//! Incremental random-linear-code decoding by online Gaussian elimination.

use std::fmt;

use crate::bitvec::BitVec;

/// Outcome of feeding one coded row to a [`Decoder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Insert {
    /// The row increased the decoder's rank (now `rank`).
    Innovative {
        /// Rank after the insertion.
        rank: usize,
    },
    /// The row was a linear combination of rows already held.
    Redundant,
}

/// Online decoder for one packet group coded over GF(2).
///
/// A *group* is `w` source packets, each padded to `payload_len` bytes.
/// Senders transmit `(coefficient bit-vector, XOR of selected packets)`
/// pairs; the decoder maintains the received rows in reduced row-echelon
/// form, so a group is decodable exactly when the rank reaches `w`, and
/// decoding is then a plain read-out.
///
/// This is the receiver side of the paper's `FORWARD` sub-routine: Lemma 6
/// argues a node receives `O(log n)` random rows per phase and, by Lemma 3,
/// those reach full rank w.h.p.
///
/// ```
/// use gf2::bitvec::BitVec;
/// use gf2::decoder::{Decoder, Insert};
///
/// let mut d = Decoder::new(2, 1);
/// assert_eq!(
///     d.insert(BitVec::from_lsb_bits(0b11, 2), vec![0xA ^ 0xB]),
///     Insert::Innovative { rank: 1 }
/// );
/// assert_eq!(
///     d.insert(BitVec::from_lsb_bits(0b11, 2), vec![0xA ^ 0xB]),
///     Insert::Redundant
/// );
/// d.insert(BitVec::from_lsb_bits(0b01, 2), vec![0xA]);
/// assert_eq!(d.decode().unwrap(), vec![vec![0xA], vec![0xB]]);
/// ```
#[derive(Clone)]
pub struct Decoder {
    /// `pivot[i]` holds the row whose leading 1 is in column `i`.
    pivot: Vec<Option<Row>>,
    payload_len: usize,
    rank: usize,
    rows_seen: usize,
}

#[derive(Clone)]
struct Row {
    coeffs: BitVec,
    payload: Vec<u8>,
}

impl Row {
    fn xor_assign(&mut self, other: &Row) {
        self.coeffs.xor_assign(&other.coeffs);
        for (a, b) in self.payload.iter_mut().zip(&other.payload) {
            *a ^= b;
        }
    }
}

impl Decoder {
    /// A decoder for a group of `w` packets of `payload_len` bytes each.
    #[must_use]
    pub fn new(w: usize, payload_len: usize) -> Self {
        Decoder {
            pivot: vec![None; w],
            payload_len,
            rank: 0,
            rows_seen: 0,
        }
    }

    /// Group size `w`.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.pivot.len()
    }

    /// Current rank (number of linearly independent rows held).
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of rows fed in, including redundant ones.
    #[must_use]
    pub fn rows_seen(&self) -> usize {
        self.rows_seen
    }

    /// `true` once all `w` packets are recoverable.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.rank == self.pivot.len()
    }

    /// Feeds one coded row. Payloads shorter than `payload_len` are
    /// zero-padded (XOR with nothing); longer ones are a caller bug.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != w` or `payload.len() > payload_len`.
    pub fn insert(&mut self, coeffs: BitVec, payload: Vec<u8>) -> Insert {
        assert_eq!(
            coeffs.len(),
            self.group_size(),
            "coefficient vector length must equal the group size"
        );
        assert!(
            payload.len() <= self.payload_len,
            "payload longer than the decoder's payload_len"
        );
        self.rows_seen += 1;
        let mut row = Row {
            coeffs,
            payload: {
                let mut p = payload;
                p.resize(self.payload_len, 0);
                p
            },
        };

        // Forward-reduce by existing pivots.
        while let Some(lead) = row.coeffs.first_one() {
            match &self.pivot[lead] {
                Some(p) => row.xor_assign(p),
                None => {
                    // Clear the new row's non-leading bits that sit in
                    // existing pivot columns (each XOR permanently clears
                    // one such column: pivot rows are zero in all other
                    // pivot columns, and have no bits below their own
                    // pivot, so `lead` stays the leading bit).
                    loop {
                        let hit = row
                            .coeffs
                            .iter_ones()
                            .filter(|&j| j != lead)
                            .find_map(|j| self.pivot[j].as_ref());
                        match hit {
                            Some(p) => row.xor_assign(p),
                            None => break,
                        }
                    }
                    // Back-substitute into existing rows that have a 1 in
                    // this column to keep RREF.
                    for other in self.pivot.iter_mut().flatten() {
                        if other.coeffs.get(lead) {
                            other.xor_assign(&row);
                        }
                    }
                    self.pivot[lead] = Some(row);
                    self.rank += 1;
                    return Insert::Innovative { rank: self.rank };
                }
            }
        }
        Insert::Redundant
    }

    /// Returns the decoded packets once complete, in group order.
    /// `None` while rank < `w`.
    #[must_use]
    pub fn decode(&self) -> Option<Vec<Vec<u8>>> {
        if !self.is_complete() {
            return None;
        }
        Some(
            self.pivot
                .iter()
                .map(|p| {
                    let row = p.as_ref().expect("complete decoder has all pivots");
                    debug_assert_eq!(row.coeffs.count_ones(), 1, "RREF invariant");
                    row.payload.clone()
                })
                .collect(),
        )
    }

    /// Moves the decoded packets out once complete, in group order, so a
    /// caller that keeps them need not copy them. `None` while rank <
    /// `w`. The decoder keeps its rank, row count and coefficient rows;
    /// only its payloads are emptied, so a later [`Decoder::decode`]
    /// or [`Decoder::packet`] reads empty payloads.
    pub fn take_decoded(&mut self) -> Option<Vec<Vec<u8>>> {
        if !self.is_complete() {
            return None;
        }
        Some(
            self.pivot
                .iter_mut()
                .map(|p| {
                    let row = p.as_mut().expect("complete decoder has all pivots");
                    std::mem::take(&mut row.payload)
                })
                .collect(),
        )
    }

    /// The single decoded packet at `index`, available as soon as that
    /// pivot row has been fully reduced to a unit vector (which, in RREF,
    /// happens exactly when the decoder is complete for partial groups;
    /// exposed for early read-out of already-isolated packets).
    ///
    /// # Panics
    ///
    /// Panics if `index >= w`.
    #[must_use]
    pub fn packet(&self, index: usize) -> Option<&[u8]> {
        let row = self.pivot[index].as_ref()?;
        if row.coeffs.count_ones() == 1 {
            Some(&row.payload)
        } else {
            None
        }
    }
}

impl fmt::Debug for Decoder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Decoder")
            .field("w", &self.group_size())
            .field("rank", &self.rank)
            .field("rows_seen", &self.rows_seen)
            .field("payload_len", &self.payload_len)
            .finish()
    }
}

/// The paper's Lemma 3 row-count threshold: once a [`Decoder`] of group
/// size `w` has been fed `l ≥ 2(w+2) + 8·ln(1/ε)` uniform random
/// coefficient rows, it is complete with probability at least `1 - ε`.
///
/// ```
/// let l = gf2::decoder::lemma3_row_threshold(10, 0.01);
/// assert!(l >= 24);
/// ```
///
/// # Panics
///
/// Panics if `epsilon` is not in `(0, 1]`.
#[must_use]
pub fn lemma3_row_threshold(w: usize, epsilon: f64) -> usize {
    assert!(
        epsilon > 0.0 && epsilon <= 1.0,
        "epsilon must be in (0, 1], got {epsilon}"
    );
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_sign_loss,
        clippy::cast_possible_truncation
    )]
    let extra = (8.0 * (1.0 / epsilon).ln()).ceil() as usize;
    2 * (w + 2) + extra
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    fn sample_group(rng: &mut impl Rng, w: usize, len: usize) -> Vec<Vec<u8>> {
        (0..w)
            .map(|_| (0..len).map(|_| rng.gen()).collect())
            .collect()
    }

    fn encode(group: &[Vec<u8>], coeffs: &BitVec, len: usize) -> Vec<u8> {
        let mut payload = vec![0u8; len];
        for i in coeffs.iter_ones() {
            for (a, b) in payload.iter_mut().zip(&group[i]) {
                *a ^= b;
            }
        }
        payload
    }

    #[test]
    fn unit_rows_decode_immediately() {
        let mut rng = SmallRng::seed_from_u64(1);
        let group = sample_group(&mut rng, 4, 8);
        let mut d = Decoder::new(4, 8);
        for i in [2, 0, 3, 1] {
            let c = BitVec::unit(4, i);
            assert!(matches!(
                d.insert(c.clone(), encode(&group, &c, 8)),
                Insert::Innovative { .. }
            ));
        }
        assert_eq!(d.decode().unwrap(), group);
    }

    #[test]
    fn take_decoded_moves_the_group_out_and_keeps_the_rank() {
        let mut rng = SmallRng::seed_from_u64(2);
        let group = sample_group(&mut rng, 3, 5);
        let mut d = Decoder::new(3, 5);
        d.insert(BitVec::unit(3, 0), group[0].clone());
        assert_eq!(d.take_decoded(), None);
        d.insert(BitVec::unit(3, 1), group[1].clone());
        d.insert(BitVec::unit(3, 2), group[2].clone());
        assert_eq!(d.take_decoded().unwrap(), group);
        assert!(d.is_complete());
        assert_eq!((d.rank(), d.rows_seen()), (3, 3));
    }

    #[test]
    fn random_rows_decode_with_overhead() {
        let mut rng = SmallRng::seed_from_u64(2);
        let w = 10;
        let group = sample_group(&mut rng, w, 16);
        let mut d = Decoder::new(w, 16);
        let mut rows = 0;
        while !d.is_complete() {
            let c = BitVec::random(w, &mut rng);
            let p = encode(&group, &c, 16);
            d.insert(c, p);
            rows += 1;
            assert!(rows < 200, "decoder failed to converge");
        }
        assert_eq!(d.decode().unwrap(), group);
        assert_eq!(d.rows_seen(), rows);
    }

    #[test]
    fn redundant_rows_do_not_change_rank() {
        let mut d = Decoder::new(3, 1);
        let a = BitVec::from_lsb_bits(0b011, 3);
        let b = BitVec::from_lsb_bits(0b110, 3);
        let mut ab = a.clone();
        ab.xor_assign(&b);
        d.insert(a, vec![1]);
        d.insert(b, vec![2]);
        assert_eq!(d.insert(ab, vec![3]), Insert::Redundant);
        assert_eq!(d.rank(), 2);
        assert!(!d.is_complete());
        assert_eq!(d.decode(), None);
    }

    #[test]
    fn zero_row_is_redundant() {
        let mut d = Decoder::new(3, 1);
        assert_eq!(d.insert(BitVec::zeros(3), vec![0]), Insert::Redundant);
        assert_eq!(d.rank(), 0);
    }

    #[test]
    fn short_payload_is_padded() {
        let mut d = Decoder::new(1, 4);
        d.insert(BitVec::unit(1, 0), vec![0xFF]);
        assert_eq!(d.decode().unwrap(), vec![vec![0xFF, 0, 0, 0]]);
    }

    #[test]
    fn empty_group_is_trivially_complete() {
        let d = Decoder::new(0, 4);
        assert!(d.is_complete());
        assert_eq!(d.decode().unwrap(), Vec::<Vec<u8>>::new());
    }

    #[test]
    #[should_panic(expected = "group size")]
    fn wrong_coeff_length_panics() {
        Decoder::new(3, 1).insert(BitVec::zeros(2), vec![0]);
    }

    #[test]
    fn packet_early_readout() {
        let mut d = Decoder::new(2, 1);
        d.insert(BitVec::unit(2, 1), vec![9]);
        assert_eq!(d.packet(1), Some(&[9u8][..]));
        assert_eq!(d.packet(0), None);
    }

    #[test]
    fn rank_deficient_subspace_never_decodes() {
        // Rows drawn only from the subspace missing coordinate 4: no
        // amount of redundancy can complete the decoder, and the rank
        // saturates strictly below w.
        let mut rng = SmallRng::seed_from_u64(7);
        let w = 5;
        let group = sample_group(&mut rng, w, 4);
        let mut d = Decoder::new(w, 4);
        for _ in 0..50 {
            let mut c = BitVec::random(w, &mut rng);
            if c.get(4) {
                c.xor_assign(&BitVec::unit(w, 4));
            }
            let p = encode(&group, &c, 4);
            d.insert(c, p);
        }
        assert_eq!(d.rank(), 4, "subspace rank saturates at w - 1");
        assert!(!d.is_complete());
        assert_eq!(d.decode(), None);
        // The missing coordinate is exactly what unblocks it.
        let c = BitVec::unit(w, 4);
        let p = encode(&group, &c, 4);
        assert_eq!(d.insert(c, p), Insert::Innovative { rank: 5 });
        assert_eq!(d.decode().unwrap(), group);
    }

    #[test]
    fn duplicate_rows_raise_rows_seen_but_not_rank() {
        let mut rng = SmallRng::seed_from_u64(8);
        let group = sample_group(&mut rng, 4, 2);
        let c = BitVec::from_lsb_bits(0b1011, 4);
        let p = encode(&group, &c, 2);
        let mut d = Decoder::new(4, 2);
        assert_eq!(
            d.insert(c.clone(), p.clone()),
            Insert::Innovative { rank: 1 }
        );
        for _ in 0..9 {
            assert_eq!(d.insert(c.clone(), p.clone()), Insert::Redundant);
        }
        assert_eq!(d.rank(), 1);
        assert_eq!(d.rows_seen(), 10);
    }

    #[test]
    fn single_packet_group_is_the_degenerate_code() {
        // w = 1 is what every group becomes under the uncoded ablation
        // (group_size_override = 1): the only non-zero coefficient
        // vector is the unit, so one reception decodes.
        let mut d = Decoder::new(1, 3);
        assert!(!d.is_complete());
        assert_eq!(d.decode(), None);
        assert_eq!(
            d.insert(BitVec::unit(1, 0), vec![1, 2, 3]),
            Insert::Innovative { rank: 1 }
        );
        assert!(d.is_complete());
        assert_eq!(d.decode().unwrap(), vec![vec![1, 2, 3]]);
        // Further copies are pure redundancy.
        assert_eq!(
            d.insert(BitVec::unit(1, 0), vec![1, 2, 3]),
            Insert::Redundant
        );
    }

    #[test]
    fn lemma3_threshold_formula() {
        // w = 10, eps = 0.01: 2*12 + ceil(8*ln 100) = 24 + 37 = 61.
        assert_eq!(lemma3_row_threshold(10, 0.01), 61);
        assert_eq!(lemma3_row_threshold(0, 1.0), 4);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn lemma3_threshold_rejects_zero_epsilon() {
        let _ = lemma3_row_threshold(4, 0.0);
    }

    #[test]
    fn lemma3_holds_empirically_small() {
        // Sanity version of experiment E6: at the Lemma 3 threshold for
        // eps = 0.1, at least 90% of decoders fed that many uniform rows
        // are complete.
        let w = 8;
        let l = lemma3_row_threshold(w, 0.1);
        let mut rng = SmallRng::seed_from_u64(11);
        let trials = 200;
        let full = (0..trials)
            .filter(|_| {
                let mut d = Decoder::new(w, 0);
                for _ in 0..l {
                    d.insert(BitVec::random(w, &mut rng), Vec::new());
                }
                d.is_complete()
            })
            .count();
        assert!(full >= trials * 9 / 10, "only {full}/{trials} complete");
    }

    #[test]
    fn rank_equals_log2_of_the_row_span_exhaustively() {
        // Rank oracle, independent of any elimination: the rows span
        // exactly 2^rank distinct vectors, and the span is the set of
        // XORs of every subset of the rows, built one row at a time
        // (subsets without the row, plus those with it). Checked on
        // every l x w 0/1 matrix with l * w <= 12.
        for w in 1..=12usize {
            for l in 1..=12 / w {
                for bits in 0u64..1 << (l * w) {
                    let rows: Vec<u64> = (0..l).map(|i| bits >> (i * w) & ((1 << w) - 1)).collect();
                    let mut span = HashSet::from([0u64]);
                    let mut d = Decoder::new(w, 0);
                    for &r in &rows {
                        let with_r: Vec<u64> = span.iter().map(|v| v ^ r).collect();
                        span.extend(with_r);
                        d.insert(BitVec::from_lsb_bits(r, w), Vec::new());
                    }
                    assert_eq!(1usize << d.rank(), span.len(), "rows {rows:?}, w = {w}");
                    assert_eq!(d.is_complete(), d.rank() == w);
                }
            }
        }
    }

    proptest! {
        /// Any full-rank sequence of rows decodes to the original group,
        /// regardless of redundancy and order.
        #[test]
        fn prop_decode_recovers_group(seed in any::<u64>(), w in 1usize..12, len in 1usize..20) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let group = sample_group(&mut rng, w, len);
            let mut d = Decoder::new(w, len);
            // Mix random rows with occasional unit rows; cap iterations.
            for i in 0..(8 * w + 64) {
                if d.is_complete() {
                    break;
                }
                let c = if i % 5 == 4 {
                    BitVec::unit(w, i % w)
                } else {
                    BitVec::random(w, &mut rng)
                };
                let p = encode(&group, &c, len);
                d.insert(c, p);
            }
            prop_assert!(d.is_complete());
            prop_assert_eq!(d.decode().unwrap(), group);
        }

        /// Rank never exceeds rows seen nor the group size, and is
        /// monotone under insertion.
        #[test]
        fn prop_rank_bounds(seed in any::<u64>(), w in 1usize..10) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let group = sample_group(&mut rng, w, 4);
            let mut d = Decoder::new(w, 4);
            let mut prev = 0;
            for _ in 0..20 {
                let c = BitVec::random(w, &mut rng);
                let p = encode(&group, &c, 4);
                d.insert(c, p);
                prop_assert!(d.rank() >= prev);
                prop_assert!(d.rank() <= d.rows_seen());
                prop_assert!(d.rank() <= w);
                prev = d.rank();
            }
        }
    }
}
