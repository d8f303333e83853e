//! Compact bit-vectors over 64-bit words.

use std::fmt;

use rand::Rng;

/// A fixed-length vector over GF(2), stored LSB-first in 64-bit words.
///
/// Used as the coefficient header of coded packets: bit `i` says whether
/// source packet `i` of the group participates in the XOR. A vector of
/// at most 64 bits — every header the protocol sends, since the group
/// size is `⌈log₂ n⌉` — keeps its one word inline, so building, cloning
/// and reducing one allocates nothing; longer vectors use the heap.
///
/// ```
/// use gf2::bitvec::BitVec;
///
/// let mut v = BitVec::zeros(10);
/// v.set(3, true);
/// v.set(7, true);
/// assert_eq!(v.count_ones(), 2);
/// assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![3, 7]);
/// assert_eq!(v.to_string(), "0001000100");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    len: usize,
    words: Words,
}

/// The backing words: inline iff `len ≤ 64`, so equal lengths mean
/// equal variants and the derived comparisons stay exact.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Words {
    Inline(u64),
    Heap(Vec<u64>),
}

impl Default for Words {
    fn default() -> Self {
        Words::Inline(0)
    }
}

impl BitVec {
    /// An all-zero vector of `len` bits.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        let words = if len <= 64 {
            Words::Inline(0)
        } else {
            Words::Heap(vec![0; len.div_ceil(64)])
        };
        BitVec { len, words }
    }

    /// Builds a vector of `len ≤ 64` bits from the low bits of `bits`
    /// (bit `i` of `bits` becomes element `i`).
    ///
    /// # Panics
    ///
    /// Panics if `len > 64`.
    #[must_use]
    pub fn from_lsb_bits(bits: u64, len: usize) -> Self {
        assert!(len <= 64, "from_lsb_bits supports at most 64 bits");
        let mask = if len == 64 {
            u64::MAX
        } else {
            (1u64 << len) - 1
        };
        BitVec {
            len,
            words: Words::Inline(bits & mask),
        }
    }

    /// A unit vector: all zeros except bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[must_use]
    pub fn unit(len: usize, i: usize) -> Self {
        let mut v = BitVec::zeros(len);
        v.set(i, true);
        v
    }

    /// A uniformly random vector (each bit independently 1 with
    /// probability ½) — the paper's coding coefficient distribution.
    #[must_use]
    pub fn random(len: usize, rng: &mut impl Rng) -> Self {
        let mut v = BitVec::zeros(len);
        for w in v.words_mut() {
            *w = rng.gen();
        }
        v.mask_tail();
        v
    }

    /// A uniformly random *nonzero* vector: [`BitVec::random`]
    /// conditioned on not being all-zero (resampled; ≤ 2 expected draws
    /// even at `len == 1`). Senders use this because the all-zero
    /// combination carries no information — a transmission the paper's
    /// analysis tolerates but an implementation has no reason to make.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0` (no nonzero vector exists).
    #[must_use]
    pub fn random_nonzero(len: usize, rng: &mut impl Rng) -> Self {
        assert!(len > 0, "no nonzero vector of length 0 exists");
        loop {
            let v = BitVec::random(len, rng);
            if !v.is_zero() {
                return v;
            }
        }
    }

    /// Number of bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the vector has zero length.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words()[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let mask = 1u64 << (i % 64);
        let w = &mut self.words_mut()[i / 64];
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// XORs `other` into `self` (vector addition over GF(2)).
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn xor_assign(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "length mismatch in xor_assign");
        match (&mut self.words, &other.words) {
            (Words::Inline(a), Words::Inline(b)) => *a ^= b,
            _ => {
                for (a, b) in self.words_mut().iter_mut().zip(other.words()) {
                    *a ^= b;
                }
            }
        }
    }

    /// `true` if every bit is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Index of the lowest set bit, or `None` if zero.
    #[must_use]
    pub fn first_one(&self) -> Option<usize> {
        for (wi, &w) in self.words().iter().enumerate() {
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// The backing words, LSB-first (bit `i` of the vector is bit
    /// `i % 64` of word `i / 64`). Bits beyond `len` in the last word
    /// are zero.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => &std::slice::from_ref(w)[..self.len.div_ceil(64)],
            Words::Heap(v) => v,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        let n = self.len.div_ceil(64);
        match &mut self.words {
            Words::Inline(w) => &mut std::slice::from_mut(w)[..n],
            Words::Heap(v) => v,
        }
    }

    /// Iterator over the indices of set bits, ascending.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words().iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(wi * 64 + b)
                }
            })
        })
    }

    /// Zeroes any bits beyond `len` in the last word (invariant repair
    /// after whole-word writes).
    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words_mut().last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

/// Calls `f` with `base + b` for every set bit `b` of `word`,
/// ascending. The word-at-a-time idiom behind [`BitVec::iter_ones`],
/// exported for callers that keep raw `u64` bit-planes (e.g. the
/// word-parallel engine sets in `radio_net`) and want the iteration
/// without the `BitVec` length invariants.
#[inline]
pub fn for_each_one(mut word: u64, base: usize, mut f: impl FnMut(usize)) {
    while word != 0 {
        f(base + word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

impl fmt::Display for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        Ok(())
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec({self})")
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        let mut v = BitVec::zeros(bits.len());
        for (i, b) in bits.into_iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_is_zero() {
        let v = BitVec::zeros(130);
        assert_eq!(v.len(), 130);
        assert!(v.is_zero());
        assert_eq!(v.count_ones(), 0);
        assert_eq!(v.first_one(), None);
    }

    #[test]
    fn set_get_roundtrip_across_word_boundary() {
        let mut v = BitVec::zeros(130);
        for i in [0, 1, 63, 64, 65, 127, 128, 129] {
            v.set(i, true);
            assert!(v.get(i));
        }
        assert_eq!(v.count_ones(), 8);
        v.set(64, false);
        assert!(!v.get(64));
        assert_eq!(v.count_ones(), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let _ = BitVec::zeros(3).get(3);
    }

    #[test]
    fn unit_vector() {
        let v = BitVec::unit(10, 4);
        assert_eq!(v.count_ones(), 1);
        assert!(v.get(4));
        assert_eq!(v.first_one(), Some(4));
    }

    #[test]
    fn from_lsb_bits_matches_bit_pattern() {
        let v = BitVec::from_lsb_bits(0b1011, 5);
        assert_eq!(v.to_string(), "11010");
        let full = BitVec::from_lsb_bits(u64::MAX, 64);
        assert_eq!(full.count_ones(), 64);
        let empty = BitVec::from_lsb_bits(0b111, 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn xor_assign_is_gf2_addition() {
        let a = BitVec::from_lsb_bits(0b1100, 4);
        let b = BitVec::from_lsb_bits(0b1010, 4);
        let mut c = a.clone();
        c.xor_assign(&b);
        assert_eq!(c, BitVec::from_lsb_bits(0b0110, 4));
        // x + x = 0
        let mut d = a.clone();
        d.xor_assign(&a);
        assert!(d.is_zero());
    }

    #[test]
    fn iter_ones_ascending() {
        let mut v = BitVec::zeros(200);
        for i in [5, 64, 70, 199] {
            v.set(i, true);
        }
        assert_eq!(v.iter_ones().collect::<Vec<_>>(), vec![5, 64, 70, 199]);
    }

    #[test]
    fn for_each_one_matches_iter_ones_per_word() {
        let mut v = BitVec::zeros(200);
        for i in [5, 64, 70, 199] {
            v.set(i, true);
        }
        let mut got = Vec::new();
        for (wi, &w) in v.words().iter().enumerate() {
            for_each_one(w, wi * 64, |i| got.push(i));
        }
        assert_eq!(got, v.iter_ones().collect::<Vec<_>>());
    }

    #[test]
    fn random_respects_length_invariant() {
        let mut rng = SmallRng::seed_from_u64(1);
        for len in [0, 1, 63, 64, 65, 100] {
            let v = BitVec::random(len, &mut rng);
            assert_eq!(v.len(), len);
            // No stray bits above len (count_ones over logical range only).
            assert!(v.iter_ones().all(|i| i < len));
        }
    }

    #[test]
    fn random_is_roughly_balanced() {
        let mut rng = SmallRng::seed_from_u64(7);
        let v = BitVec::random(10_000, &mut rng);
        let ones = v.count_ones();
        assert!((4_000..6_000).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn inline_and_heap_lengths_behave_alike() {
        // 64 bits is the last inline length, 65 the first heap one.
        for len in [0, 1, 63, 64, 65, 128, 130] {
            let mut v = BitVec::zeros(len);
            assert_eq!(v.words().len(), len.div_ceil(64), "len {len}");
            if len > 0 {
                v.set(len - 1, true);
                assert_eq!(v.first_one(), Some(len - 1));
                assert_eq!(v, BitVec::unit(len, len - 1));
                let mut w = v.clone();
                w.xor_assign(&v);
                assert!(w.is_zero());
                assert_eq!(w, BitVec::zeros(len));
            }
        }
        assert_eq!(BitVec::default(), BitVec::zeros(0));
    }

    #[test]
    fn from_iterator() {
        let v: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(v.to_string(), "101");
    }

    proptest! {
        #[test]
        fn prop_xor_is_commutative(a in proptest::collection::vec(any::<bool>(), 0..200),
                                   b_seed in any::<u64>()) {
            let len = a.len();
            let a: BitVec = a.into_iter().collect();
            let mut rng = SmallRng::seed_from_u64(b_seed);
            let b = BitVec::random(len, &mut rng);
            let mut ab = a.clone();
            ab.xor_assign(&b);
            let mut ba = b.clone();
            ba.xor_assign(&a);
            prop_assert_eq!(ab, ba);
        }

        #[test]
        fn prop_xor_self_inverse(bits in proptest::collection::vec(any::<bool>(), 0..200)) {
            let a: BitVec = bits.into_iter().collect();
            let mut twice = a.clone();
            twice.xor_assign(&a);
            prop_assert!(twice.is_zero());
        }

        #[test]
        fn prop_first_one_matches_iter(bits in proptest::collection::vec(any::<bool>(), 1..200)) {
            let v: BitVec = bits.into_iter().collect();
            prop_assert_eq!(v.first_one(), v.iter_ones().next());
        }

        #[test]
        fn prop_count_matches_iter(bits in proptest::collection::vec(any::<bool>(), 0..200)) {
            let v: BitVec = bits.clone().into_iter().collect();
            prop_assert_eq!(v.count_ones(), bits.iter().filter(|&&b| b).count());
            prop_assert_eq!(v.count_ones(), v.iter_ones().count());
        }
    }
}
