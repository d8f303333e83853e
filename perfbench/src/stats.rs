//! Order statistics under the benchmark's steadiness rule: a percentile
//! is reported only when at least [`MIN_BEYOND`] samples lie beyond it,
//! so no reported figure rests on a handful of extreme samples.

use std::fmt;

/// Samples that must lie strictly beyond a reported percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooFewSamples {
    /// The requested percentile.
    pub p: u32,
    /// Samples available.
    pub samples: usize,
    /// Samples that would lie beyond the percentile's rank.
    pub beyond: usize,
}

impl fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} over {} samples leaves {} beyond it (need {MIN_BEYOND})",
            self.p, self.samples, self.beyond
        )
    }
}

/// The nearest-rank `p`-th percentile (`1..=100`) of `samples`: the
/// value at 1-based rank `⌈p/100 · n⌉` of the sorted samples.
///
/// # Errors
///
/// [`TooFewSamples`] when fewer than [`MIN_BEYOND`] samples rank above
/// it — e.g. a median over fewer than 20 samples or a p99 over fewer
/// than 1000.
///
/// # Panics
///
/// Panics if `p` is outside `1..=100` or a sample is NaN.
pub fn percentile(samples: &[f64], p: u32) -> Result<f64, TooFewSamples> {
    assert!((1..=100).contains(&p), "percentile {p} outside 1..=100");
    let n = samples.len();
    let rank = (usize::try_from(p).expect("p fits usize") * n).div_ceil(100);
    let beyond = n - rank;
    if n == 0 || beyond < MIN_BEYOND {
        return Err(TooFewSamples {
            p,
            samples: n,
            beyond,
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    Ok(sorted[rank - 1])
}

/// Arithmetic mean; 0 for an empty slice.
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    let n = samples.len() as f64;
    samples.iter().sum::<f64>() / n
}
