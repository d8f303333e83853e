//! Collection strategies ([`vec()`]).

use std::fmt::Debug;

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// A length specification for collection strategies, converted from a
/// fixed size or a (half-open or inclusive) range of sizes.
#[derive(Clone, Copy, Debug)]
pub struct SizeRange {
    min: usize,
    /// Exclusive upper bound.
    max: usize,
}

impl SizeRange {
    pub(crate) fn min(self) -> usize {
        self.min
    }

    pub(crate) fn max(self) -> usize {
        self.max
    }
}

impl From<usize> for SizeRange {
    fn from(len: usize) -> Self {
        SizeRange {
            min: len,
            max: len + 1,
        }
    }
}

impl From<core::ops::Range<usize>> for SizeRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        assert!(r.start < r.end, "empty vec length range");
        SizeRange {
            min: r.start,
            max: r.end,
        }
    }
}

impl From<core::ops::RangeInclusive<usize>> for SizeRange {
    fn from(r: core::ops::RangeInclusive<usize>) -> Self {
        assert!(r.start() <= r.end(), "empty vec length range");
        SizeRange {
            min: *r.start(),
            max: *r.end() + 1,
        }
    }
}

/// Strategy for `Vec<T>` with element strategy `S` and a length drawn
/// from `size`.
#[must_use]
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// See [`vec()`].
#[derive(Clone, Copy, Debug)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S>
where
    S::Value: Debug + Clone,
{
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.size.max - self.size.min) as u64;
        let len = self.size.min + rng.below(span) as usize;
        (0..len).map(|_| self.element.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        // Structural shrinks first (most aggressive): drop whole halves,
        // then single elements — always respecting the minimum length.
        if value.len() / 2 >= self.size.min && value.len() > 1 {
            out.push(value[..value.len() / 2].to_vec());
            out.push(value[value.len() - value.len() / 2..].to_vec());
        }
        if value.len() > self.size.min {
            for i in 0..value.len() {
                let mut v = value.clone();
                v.remove(i);
                out.push(v);
            }
        }
        // Then element-wise shrinks, one position at a time.
        for (i, elem) in value.iter().enumerate() {
            for cand in self.element.shrink(elem) {
                let mut v = value.clone();
                v[i] = cand;
                out.push(v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbitrary::any;

    #[test]
    fn lengths_respect_the_range() {
        let s = vec(any::<u8>(), 2..6);
        let mut rng = TestRng::for_test("lens");
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..6).contains(&v.len()));
        }
    }

    #[test]
    fn shrink_respects_minimum_length_and_simplifies_elements() {
        let s = vec(0u32..100, 2..6);
        // At the minimum length only element-wise shrinks remain.
        let at_min = s.shrink(&std::vec![0, 0]);
        assert!(at_min.is_empty());
        let cands = s.shrink(&std::vec![10, 20, 30]);
        assert!(cands.iter().all(|c| c.len() >= 2));
        assert!(cands.iter().any(|c| c.len() == 2)); // removals proposed
        assert!(cands.iter().any(|c| c.len() == 3)); // element shrinks too
    }

    #[test]
    fn fixed_size_and_inclusive_forms() {
        let mut rng = TestRng::for_test("forms");
        assert_eq!(vec(any::<bool>(), 3).generate(&mut rng).len(), 3);
        let v = vec(any::<bool>(), 1..=2).generate(&mut rng);
        assert!((1..=2).contains(&v.len()));
    }
}
